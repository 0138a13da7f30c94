"""The record types' contract: fields, construction, repr, equality,
immutability and every invariant message.

Each record is built from the keyword arguments in ``EXAMPLES``, which also
give the expected field names and order; ``DEFAULTS`` gives the defaults.
"""

import inspect
import json
import math
import subprocess
import sys

import pytest

from mmwprop import cli, datasets, partition, pathloss, reflection, scattering
from mmwprop.cli import CommandResult
from mmwprop.datasets import (
    AntennaSpec,
    CiFitRecord,
    Environment,
    Material,
    PaperDataset,
    PartitionRecord,
    PathLossSample,
    Polarization,
    ReflectionSample,
    SounderBand,
    ValidationReport,
)
from mmwprop.errors import InvariantViolationError
from mmwprop.partition import PartitionLossResult, PowerBudget, partition_loss
from mmwprop.pathloss import CiModel, DirectionalReduction
from mmwprop.reflection import LinearReflectionFit, PermittivityEstimate
from mmwprop.scattering import DsParameters, ScatterGeometry, ScatterPatternPoint

REQUIRED = inspect.Parameter.empty
V, H = Polarization.V, Polarization.H
_ANTENNA = AntennaSpec(hpbw_deg=8.0, gain_dbi=27.0)
_SAMPLE = dict(freq_hz=142e9, tx_id="tx1", rx_id="rx2", distance_m=4.0,
               environment=Environment.NLOS, tx_az_deg=10.0, tx_el_deg=0.0,
               rx_az_deg=-20.0, rx_el_deg=5.0, tx_pol=V, rx_pol=H, path_loss_db=110.5)

# Record -> valid keyword arguments, in field order.
EXAMPLES = {
    AntennaSpec: dict(hpbw_deg=10.0, gain_dbi=24.5),
    ReflectionSample: dict(freq_hz=142e9, incident_angle_deg=30.0, reflection_loss_db=7.53),
    PartitionRecord: dict(freq_hz=73e9, material_name="drywall", tx_pol=V, rx_pol=H,
                          mean_loss_db=24.97, std_db=0.58),
    CiFitRecord: dict(freq_hz=142e9, environment=Environment.NLOS_BEST, ple=3.03,
                      sigma_db=6.91),
    PathLossSample: _SAMPLE,
    Material: dict(name="drywall", thickness_m=0.145, permittivity=((142e9, 6.4),)),
    SounderBand: dict(freq_hz=142e9, label="142GHz", rf_bandwidth_hz=1e9, antennas=(_ANTENNA,),
                      xpd_db=44.18),
    PaperDataset: dict(sounders=(), reflection=(), partition=(), ci_fits=(), materials=()),
    ValidationReport: dict(los_count=1, nlos_count=2, distance_min_m=1.5, distance_max_m=9.0,
                           duplicates=(("tx1", "rx1"),)),
    PartitionLossResult: dict(loss_db=-0.5, negative_loss=True),
    PowerBudget: dict(reflected_fraction=0.25, transmitted_fraction=0.5,
                      absorbed_fraction=0.25),
    CiModel: dict(freq_hz=28e9, ple=1.7, sigma_db=2.5),
    DirectionalReduction: dict(los=(), nlos_all=(), nlos_best=()),
    PermittivityEstimate: dict(eps_r=6.4, mse=1e-6, samples_used=4),
    LinearReflectionFit: dict(slope=-0.01, intercept=0.9),
    DsParameters: dict(s_coeff=0.3, lambda_mix=0.8, alpha_r=2, alpha_i=5),
    ScatterGeometry: dict(incident_angle_deg=30.0, observation_angles_deg=(-40.0, 30.0)),
    ScatterPatternPoint: dict(observation_angle_deg=30.0, relative_power_db=-3.5),
    CommandResult: dict(exit_code=0, stdout="{}\n", stderr=""),
    cli._Option: dict(flag="--gains-dbi", type=float, default=None, required=False,
                      choices=None, nargs=2, metavar=("TX", "RX"), help="antenna gains"),
    cli._Command: dict(help="Friis free-space path loss", handler=cli._cmd_fspl,
                       options=(cli._Option("--freq", required=True),), formats=False),
}

# Fields whose constructor argument may be left out, with their defaults.
DEFAULTS = {
    DsParameters: dict(s_coeff=0.4, lambda_mix=0.9, alpha_r=4, alpha_i=4),
    cli._Option: dict(type=float, default=None, required=False, choices=None, nargs=None,
                      metavar=None, help=None),
    cli._Command: dict(formats=False),
}

RECORDS = list(EXAMPLES)


def _id(cls):
    return cls.__name__


def test_every_record_is_a_named_tuple_listed_here():
    found = {obj for module in (cli, datasets, partition, pathloss, reflection, scattering)
             for obj in vars(module).values()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_constructor_takes_the_fields_in_order_with_their_defaults(cls):
    params = inspect.signature(cls).parameters
    assert list(params) == list(EXAMPLES[cls])
    defaults = {name: p.default for name, p in params.items() if p.default is not REQUIRED}
    assert defaults == DEFAULTS.get(cls, {})


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_keyword_and_positional_construction_agree(cls):
    kwargs = EXAMPLES[cls]
    record = cls(**kwargs)
    assert record == cls(*kwargs.values())
    assert {name: getattr(record, name) for name in kwargs} == kwargs


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=_id)
def test_omitted_arguments_take_the_defaults(cls):
    required = {k: v for k, v in EXAMPLES[cls].items() if k not in DEFAULTS[cls]}
    record = cls(**required)
    assert {name: getattr(record, name) for name in DEFAULTS[cls]} == DEFAULTS[cls]


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_repr_names_each_field(cls):
    kwargs = EXAMPLES[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls", RECORDS, ids=_id)
def test_records_of_a_type_compare_by_value(cls):
    kwargs = EXAMPLES[cls]
    assert cls(**kwargs) == cls(**kwargs)
    assert not cls(**kwargs) != cls(**kwargs)


@pytest.mark.parametrize("cls", [c for c in RECORDS if c is not CommandResult], ids=_id)
def test_fields_cannot_be_assigned(cls):
    kwargs = EXAMPLES[cls]
    record = cls(**kwargs)
    name, value = next(iter(kwargs.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) == value
    assert hash(record) == hash(cls(**kwargs))


def test_enum_text_is_stored_as_the_member():
    sample = PathLossSample(**{**_SAMPLE, "environment": "LOS", "tx_pol": "H",
                               "rx_pol": "V"})
    assert sample.environment is Environment.LOS
    assert (sample.tx_pol, sample.rx_pol) == (H, V)
    assert type(sample.tx_pol) is Polarization
    assert CiFitRecord(28e9, "NLOS_BEST", 3.0, 10.8).environment is Environment.NLOS_BEST
    record = PartitionRecord(28e9, "drywall", "V", "H", 25.59, 2.85)
    assert (record.tx_pol, record.rx_pol) == (V, H)


def test_lobe_exponents_are_stored_as_int():
    params = DsParameters(alpha_r=4.0, alpha_i=True)
    assert (params.alpha_r, params.alpha_i) == (4, 1)
    assert type(params.alpha_r) is int and type(params.alpha_i) is int


_ENVS = "['LOS', 'NLOS', 'NLOS_BEST']"
_MEASURED = "['LOS', 'NLOS']"  # a measured sample is never NLOS_BEST
_POLS = "['V', 'H']"


def _sample(**changes):
    return lambda: PathLossSample(**{**_SAMPLE, **changes})


INVARIANTS = [
    # datasets
    (lambda: ReflectionSample(0.0, 30.0, 1.0), "freq_hz must be > 0"),
    (lambda: ReflectionSample(28e9, 0.0, 1.0), "incident_angle_deg must lie in (0, 90)"),
    (lambda: ReflectionSample(28e9, 90.0, 1.0), "incident_angle_deg must lie in (0, 90)"),
    (lambda: ReflectionSample(28e9, 30.0, -0.1), "reflection_loss_db must be >= 0"),
    (lambda: ReflectionSample(0.0, 90.0, -1.0), "freq_hz must be > 0"),
    (lambda: PartitionRecord(28e9, "glass", "X", "V", 1.0, 0.1),
     f"tx_pol must be one of {_POLS}, got 'X'"),
    (lambda: PartitionRecord(28e9, "glass", V, "v", 1.0, 0.1),
     f"rx_pol must be one of {_POLS}, got 'v'"),
    (lambda: PartitionRecord(28e9, "glass", V, V, 1.0, -0.1), "std_db must be >= 0"),
    (lambda: PartitionRecord(28e9, "glass", Environment.LOS, V, 1.0, 0.1),
     f"tx_pol must be one of {_POLS}, got <Environment.LOS: 'LOS'>"),
    (lambda: CiFitRecord(28e9, "MOON", 1.0, 1.0),
     f"environment must be one of {_ENVS}, got 'MOON'"),
    (lambda: CiFitRecord(28e9, "LOS", 0.0, 1.0), "ple must be > 0"),
    (lambda: CiFitRecord(28e9, "LOS", 1.0, -1.0), "sigma_db must be >= 0"),
    (lambda: CiFitRecord(-1.0, "LOS", 2.0, 1.0), "freq_hz must be > 0"),
    (lambda: PartitionRecord(-28e9, None, "V", "V", -3.0, 0.1), "freq_hz must be > 0"),
    (lambda: PartitionRecord(28e9, None, V, V, 1.0, 0.1),
     "material_name must be a str, got NoneType"),
    (lambda: PartitionRecord(28e9, "", V, V, 1.0, 0.1), "material_name must not be empty"),
    (_sample(environment="MOON"), f"environment must be one of {_MEASURED}, got 'MOON'"),
    (_sample(environment="los"), f"environment must be one of {_MEASURED}, got 'los'"),
    (_sample(environment=None), f"environment must be one of {_MEASURED}, got None"),
    (_sample(environment=["LOS"]), f"environment must be one of {_MEASURED}, got ['LOS']"),
    (_sample(environment="NLOS_BEST"),
     f"environment must be one of {_MEASURED}, got 'NLOS_BEST'"),
    (_sample(environment=Environment.NLOS_BEST),
     f"environment must be one of {_MEASURED}, got <Environment.NLOS_BEST: 'NLOS_BEST'>"),
    (_sample(tx_pol="X"), f"tx_pol must be one of {_POLS}, got 'X'"),
    (_sample(tx_pol={}), f"tx_pol must be one of {_POLS}, got {{}}"),
    (_sample(rx_pol="LOS"), f"rx_pol must be one of {_POLS}, got 'LOS'"),
    (_sample(freq_hz=0.0), "freq_hz must be > 0"),
    (_sample(freq_hz=math.nan), "freq_hz must be > 0"),
    (_sample(distance_m=0.999), "distance_m must be >= 1 (close-in reference distance)"),
    (_sample(path_loss_db=0.0), "path_loss_db must be > 0"),
    (_sample(tx_id=None), "tx_id must be a str, got NoneType"),
    (_sample(rx_id=5), "rx_id must be a str, got int"),
    # the checks run in a fixed order: enums, then numbers
    (_sample(environment="X", tx_pol="X", freq_hz=0.0),
     f"environment must be one of {_MEASURED}, got 'X'"),
    (_sample(rx_pol="X", freq_hz=0.0), f"rx_pol must be one of {_POLS}, got 'X'"),
    (_sample(freq_hz=-1.0, distance_m=0.0, path_loss_db=0.0), "freq_hz must be > 0"),
    # partition
    (lambda: partition_loss(0.0, -90.0, 0.0, 28e9), "distance_m must be > 0"),
    (lambda: partition_loss(0.0, -90.0, 3.0, 0.0), "freq_hz must be > 0"),
    (lambda: PowerBudget(1.5, 0.0, 0.0), "reflected_fraction must lie in [0, 1], got 1.5"),
    (lambda: PowerBudget(0.5, -0.5, 1.0),
     "transmitted_fraction must lie in [0, 1], got -0.5"),
    (lambda: PowerBudget(0.5, 0.5, math.nan),
     "absorbed_fraction must lie in [0, 1], got nan"),
    (lambda: PowerBudget(0.5, 0.25, 0.0), "fractions must sum to 1, got 0.75"),
    # pathloss
    (lambda: CiModel(28e9, 0.0, 1.0), "ple must be > 0"),
    (lambda: CiModel(28e9, 2.0, -1.0), "sigma_db must be >= 0"),
    (lambda: CiModel(0.0, 2.0, 1.0), "freq_hz must be > 0"),
    # scattering
    (lambda: DsParameters(s_coeff=1.5), "s_coeff must lie in [0, 1]"),
    (lambda: DsParameters(lambda_mix=-0.1), "lambda_mix must lie in [0, 1]"),
    (lambda: DsParameters(alpha_r=0), "alpha_r must be an integer in [1, 1000000]"),
    (lambda: DsParameters(alpha_i=2.5), "alpha_i must be an integer in [1, 1000000]"),
    (lambda: DsParameters(alpha_i=math.inf), "alpha_i must be an integer in [1, 1000000]"),
    (lambda: ScatterGeometry(90.0, 0.0), "incident_angle_deg must lie in [0, 90)"),
    (lambda: ScatterGeometry(30.0, (30.0, 80.1)),
     "observation_angle_deg must lie within the measured arc [-80, 80]"),
    (lambda: ScatterGeometry(90.0, (80.1,)), "incident_angle_deg must lie in [0, 90)"),
    (lambda: ScatterGeometry(30.0, (30.0, math.nan)),
     "observation_angle_deg must lie within the measured arc [-80, 80]"),
    (lambda: ScatterPatternPoint(0.0, 0.1), "relative_power_db must be <= 0"),
    (lambda: ScatterPatternPoint(0.0, math.nan), "relative_power_db must be finite"),
    (lambda: ScatterPatternPoint(0.0, -math.inf), "relative_power_db must be finite"),
    (lambda: ScatterPatternPoint(0.0, math.inf), "relative_power_db must be finite"),
    # every float field is finite: an infinite and a NaN row per field, where the record's
    # own check, which runs first, names some of them
    (lambda: ReflectionSample(math.inf, 30.0, 1.0), "freq_hz must be finite"),
    (lambda: ReflectionSample(math.nan, 30.0, 1.0), "freq_hz must be > 0"),
    (lambda: ReflectionSample(28e9, math.inf, 1.0), "incident_angle_deg must lie in (0, 90)"),
    (lambda: ReflectionSample(28e9, math.nan, 1.0), "incident_angle_deg must lie in (0, 90)"),
    (lambda: ReflectionSample(28e9, 30.0, math.inf), "reflection_loss_db must be finite"),
    (lambda: ReflectionSample(28e9, 30.0, math.nan), "reflection_loss_db must be >= 0"),
    (lambda: PartitionRecord(math.inf, "glass", V, V, 1.0, 0.1), "freq_hz must be finite"),
    (lambda: PartitionRecord(math.nan, "glass", V, V, 1.0, 0.1), "freq_hz must be finite"),
    (lambda: PartitionRecord(28e9, "glass", V, V, math.inf, 0.1), "mean_loss_db must be finite"),
    (lambda: PartitionRecord(28e9, "glass", V, V, math.nan, 0.1), "mean_loss_db must be finite"),
    (lambda: PartitionRecord(28e9, "glass", V, V, 1.0, math.inf), "std_db must be finite"),
    (lambda: PartitionRecord(28e9, "glass", V, V, 1.0, math.nan), "std_db must be >= 0"),
    (lambda: CiFitRecord(math.inf, "LOS", 1.0, 1.0), "freq_hz must be finite"),
    (lambda: CiFitRecord(math.nan, "LOS", 1.0, 1.0), "freq_hz must be finite"),
    (lambda: CiFitRecord(28e9, "LOS", math.inf, 1.0), "ple must be finite"),
    (lambda: CiFitRecord(28e9, "LOS", math.nan, 1.0), "ple must be > 0"),
    (lambda: CiFitRecord(28e9, "LOS", 1.0, math.inf), "sigma_db must be finite"),
    (lambda: CiFitRecord(28e9, "LOS", 1.0, math.nan), "sigma_db must be >= 0"),
    (_sample(freq_hz=math.inf), "freq_hz must be finite"),
    (_sample(distance_m=math.inf), "distance_m must be finite"),
    (_sample(distance_m=math.nan), "distance_m must be >= 1 (close-in reference distance)"),
    (_sample(tx_az_deg=math.inf), "tx_az_deg must be finite"),
    (_sample(tx_az_deg=math.nan), "tx_az_deg must be finite"),
    (_sample(tx_el_deg=math.inf), "tx_el_deg must be finite"),
    (_sample(tx_el_deg=math.nan), "tx_el_deg must be finite"),
    (_sample(rx_az_deg=math.inf), "rx_az_deg must be finite"),
    (_sample(rx_az_deg=math.nan), "rx_az_deg must be finite"),
    (_sample(rx_el_deg=math.inf), "rx_el_deg must be finite"),
    (_sample(rx_el_deg=math.nan), "rx_el_deg must be finite"),
    (_sample(path_loss_db=math.inf), "path_loss_db must be finite"),
    (_sample(path_loss_db=math.nan), "path_loss_db must be > 0"),
    (lambda: CiModel(math.inf, 2.0, 1.0), "freq_hz must be finite"),
    (lambda: CiModel(math.nan, 2.0, 1.0), "freq_hz must be finite"),
    (lambda: CiModel(28e9, math.inf, 1.0), "ple must be finite"),
    (lambda: CiModel(28e9, math.nan, 1.0), "ple must be > 0"),
    (lambda: CiModel(28e9, 2.0, math.inf), "sigma_db must be finite"),
    (lambda: CiModel(28e9, 2.0, math.nan), "sigma_db must be >= 0"),
    (lambda: PowerBudget(math.inf, 0.5, 0.5), "reflected_fraction must lie in [0, 1], got inf"),
    (lambda: PowerBudget(math.nan, 0.5, 0.5), "reflected_fraction must lie in [0, 1], got nan"),
    (lambda: PowerBudget(0.5, math.inf, 0.5),
     "transmitted_fraction must lie in [0, 1], got inf"),
    (lambda: PowerBudget(0.5, math.nan, 0.5),
     "transmitted_fraction must lie in [0, 1], got nan"),
    (lambda: PowerBudget(0.5, 0.5, math.inf), "absorbed_fraction must lie in [0, 1], got inf"),
    (lambda: DsParameters(s_coeff=math.inf), "s_coeff must lie in [0, 1]"),
    (lambda: DsParameters(s_coeff=math.nan), "s_coeff must lie in [0, 1]"),
    (lambda: DsParameters(lambda_mix=math.inf), "lambda_mix must lie in [0, 1]"),
    (lambda: DsParameters(lambda_mix=math.nan), "lambda_mix must lie in [0, 1]"),
    (lambda: ScatterGeometry(math.inf, (30.0,)), "incident_angle_deg must lie in [0, 90)"),
    (lambda: ScatterGeometry(math.nan, (30.0,)), "incident_angle_deg must lie in [0, 90)"),
    (lambda: ScatterPatternPoint(math.inf, -1.0), "observation_angle_deg must be finite"),
    (lambda: ScatterPatternPoint(math.nan, -1.0), "observation_angle_deg must be finite"),
    # a float field that is not a finite real number, met by the record's own check or by
    # the finiteness check; the first such field is named
    (lambda: ReflectionSample(73e9, 30.0, "4"), "reflection_loss_db must be a finite real number"),
    (lambda: PartitionRecord(28e9, "g", "V", "V", "x", 0.1),
     "mean_loss_db must be a finite real number"),
    (lambda: PartitionRecord(28e9, "g", V, V, "x", "y"),
     "mean_loss_db must be a finite real number"),
    (lambda: CiFitRecord(10**400, "LOS", 1.0, 1.0), "freq_hz must be a finite real number"),
    (_sample(distance_m="5"), "distance_m must be a finite real number"),
    (lambda: CiModel(73e9, 10**400, 1.0), "ple must be a finite real number"),
    (lambda: PowerBudget(0.5, 0.5, 1j), "absorbed_fraction must be a finite real number"),
    (lambda: DsParameters(s_coeff="0.4"), "s_coeff must be a finite real number"),
    (lambda: ScatterGeometry("30", (30.0,)), "incident_angle_deg must be a finite real number"),
    (lambda: ScatterPatternPoint(None, -1.0), "observation_angle_deg must be a finite real number"),
]


@pytest.mark.parametrize("build, message", INVARIANTS)
def test_invariant_message(build, message):
    with pytest.raises(InvariantViolationError) as info:
        build()
    assert str(info.value) == message
    assert info.value.row is None


# The records built on datasets._checked, whose one constructor checks the fields.
_CHECKED_NEW = datasets._checked("Any", []).__new__.__code__
CHECKED = [cls for cls in RECORDS if cls.__new__.__code__ is _CHECKED_NEW]


class _Built(Exception):
    """Raised by a stand-in for a record class with the fields it was given."""


def _stand_in(cls):
    def build(*args, **kwargs):
        bound = inspect.signature(cls).bind(*args, **kwargs)
        bound.apply_defaults()
        raise _Built(cls, bound.arguments)
    return build


def _record_rows():
    """The rows of INVARIANTS that build a record, as (record class, its
    fields, message): each row runs once with stand-ins for the classes."""
    saved = {cls.__name__: cls for cls in CHECKED}
    globals().update({name: _stand_in(cls) for name, cls in saved.items()})
    try:
        for row, (build, message) in enumerate(INVARIANTS):
            try:
                build()
            except _Built as built:
                yield pytest.param(*built.args, message, id=f"{built.args[0].__name__}-{row}")
            except InvariantViolationError:  # the row calls a function
                pass
    finally:
        globals().update(saved)


@pytest.mark.parametrize("cls, fields, message", list(_record_rows()))
def test_replace_and_make_check_like_the_constructor(cls, fields, message):
    valid = cls(**EXAMPLES[cls])
    for build in (lambda: valid._replace(**fields), lambda: cls._make(fields.values())):
        with pytest.raises(InvariantViolationError) as info:
            build()
        assert str(info.value) == message


def test_every_checked_record_has_a_row_in_invariants():
    assert len(CHECKED) == 9  # the rule that picks CHECKED misses none
    assert {param.values[0] for param in _record_rows()} == set(CHECKED)


_FRESH_IMPORT = ("import json, sys; import mmwprop.cli; "
                 "print(json.dumps(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} "
                 "& set(sys.modules))))")


def test_cli_import_loads_no_dataclasses():
    """A new interpreter: the test session itself has these modules loaded."""
    completed = subprocess.run([sys.executable, "-c", _FRESH_IMPORT],
                               capture_output=True, text=True, check=True)
    assert json.loads(completed.stdout) == []
