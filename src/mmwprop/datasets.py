"""Embedded reference data for drywall / clear glass at 28, 73 and 142 GHz.

Holds the published channel-sounder, reflection-loss, partition-loss and
close-in fit tables as immutable constants, plus CSV ingestion for external
directional path-loss measurements.

Sign convention: reflection losses are stored as positive dB magnitudes
(the source tables print them as negative dB). Partition losses and CI
parameters are positive as printed.
"""

from __future__ import annotations

import csv
import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    BadNumericError,
    InvariantViolationError,
    MissingColumnError,
    MissingEntryError,
)


def same_freq(a: float, b: float) -> bool:
    """The one frequency-match rule: equal to within a relative 1e-9."""
    return math.isclose(a, b, rel_tol=1e-9)


class Environment(str, Enum):
    LOS = "LOS"
    NLOS = "NLOS"
    NLOS_BEST = "NLOS_BEST"


class Polarization(str, Enum):
    V = "V"
    H = "H"


def _coerce(obj, field_name: str, enum_cls, allowed=None):
    value = getattr(obj, field_name)
    if not isinstance(value, enum_cls):
        try:
            value = enum_cls(value)
        except ValueError:
            raise InvariantViolationError(
                f"{field_name} must be one of {[e.value for e in enum_cls]}, got {value!r}"
            ) from None
        object.__setattr__(obj, field_name, value)
    if allowed is not None and value not in allowed:
        raise InvariantViolationError(
            f"{field_name} must be one of {[e.value for e in allowed]}, got {value.value!r}")
    return value


@dataclass(frozen=True)
class FrequencyBand:
    center_frequency_hz: float
    label: str

    def __post_init__(self):
        if not self.center_frequency_hz > 0:
            raise InvariantViolationError("center_frequency_hz must be > 0")


@dataclass(frozen=True)
class AntennaSpec:
    hpbw_deg: float
    gain_dbi: float
    xpd_db: float

    def __post_init__(self):
        if not 0 < self.hpbw_deg < 180:
            raise InvariantViolationError("hpbw_deg must lie in (0, 180)")
        if not self.xpd_db > 0:
            raise InvariantViolationError("xpd_db must be > 0")


@dataclass(frozen=True)
class ReflectionSample:
    """One (incident angle, reflection loss) observation at one frequency."""

    freq_hz: float
    incident_angle_deg: float
    reflection_loss_db: float

    def __post_init__(self):
        if not self.freq_hz > 0:
            raise InvariantViolationError("freq_hz must be > 0")
        if not 0 < self.incident_angle_deg < 90:
            raise InvariantViolationError("incident_angle_deg must lie in (0, 90)")
        if not self.reflection_loss_db >= 0:
            raise InvariantViolationError("reflection_loss_db must be >= 0")


@dataclass(frozen=True)
class PartitionRecord:
    freq_hz: float
    material_name: str
    tx_pol: Polarization
    rx_pol: Polarization
    mean_loss_db: float
    std_db: float

    def __post_init__(self):
        _coerce(self, "tx_pol", Polarization)
        _coerce(self, "rx_pol", Polarization)
        if not self.std_db >= 0:
            raise InvariantViolationError("std_db must be >= 0")


@dataclass(frozen=True)
class CiFitRecord:
    freq_hz: float
    environment: Environment
    ple: float
    sigma_db: float

    def __post_init__(self):
        _coerce(self, "environment", Environment)
        if not self.ple > 0:
            raise InvariantViolationError("ple must be > 0")
        if not self.sigma_db >= 0:
            raise InvariantViolationError("sigma_db must be >= 0")


@dataclass(frozen=True)
class PathLossSample:
    """One directional path-loss record (single pointing-angle combination)."""

    freq_hz: float
    tx_id: str
    rx_id: str
    distance_m: float
    environment: Environment
    tx_az_deg: float
    tx_el_deg: float
    rx_az_deg: float
    rx_el_deg: float
    tx_pol: Polarization
    rx_pol: Polarization
    path_loss_db: float

    def __post_init__(self):
        _coerce(self, "environment", Environment,
                allowed=(Environment.LOS, Environment.NLOS))
        _coerce(self, "tx_pol", Polarization)
        _coerce(self, "rx_pol", Polarization)
        if not self.freq_hz > 0:
            raise InvariantViolationError("freq_hz must be > 0")
        if not self.distance_m >= 1.0:
            raise InvariantViolationError(
                "distance_m must be >= 1 (close-in reference distance)")
        if not self.path_loss_db > 0:
            raise InvariantViolationError("path_loss_db must be > 0")


@dataclass(frozen=True)
class Material:
    """Building material with per-frequency relative permittivity."""

    name: str
    thickness_m: float
    permittivity: tuple[tuple[float, float], ...]  # (freq_hz, eps_r) pairs

    def eps_r_at(self, freq_hz: float) -> float:
        for f, eps in self.permittivity:
            if same_freq(f, freq_hz):
                return eps
        raise MissingEntryError(f"no permittivity for {self.name} at {freq_hz} Hz")


@dataclass(frozen=True)
class SounderBand:
    """Channel-sounder line: band, RF bandwidth and the horn antennas used."""

    band: FrequencyBand
    rf_bandwidth_hz: float
    antennas: tuple[AntennaSpec, ...]

    @property
    def xpd_db(self) -> float:
        return self.antennas[0].xpd_db

    @property
    def arc_antenna(self) -> AntennaSpec:
        """Narrow-beam horn used on the reflection/scattering arc."""
        return self.antennas[-1]


# ---------------------------------------------------------------------------
# Embedded tables
# ---------------------------------------------------------------------------

_BAND_28 = FrequencyBand(28e9, "28GHz")
_BAND_73 = FrequencyBand(73e9, "73GHz")
_BAND_142 = FrequencyBand(142e9, "142GHz")

_SOUNDERS = (
    SounderBand(_BAND_28, 1e9, (AntennaSpec(30.0, 15.0, 19.30),
                                AntennaSpec(10.0, 24.5, 19.30))),
    SounderBand(_BAND_73, 1e9, (AntennaSpec(15.0, 20.0, 28.94),
                                AntennaSpec(7.0, 27.0, 28.94))),
    SounderBand(_BAND_142, 1e9, (AntennaSpec(8.0, 27.0, 44.18),)),
)

# Reflection loss of drywall vs incident angle, positive dB.
_REFLECTION = tuple(
    ReflectionSample(f, angle, loss)
    for f, rows in (
        (28e9, ((10.0, 12.98), (30.0, 4.22), (60.0, 4.06), (80.0, 3.18))),
        (73e9, ((10.0, 12.65), (30.0, 8.08), (60.0, 3.16), (80.0, 1.28))),
        (142e9, ((10.0, 9.81), (30.0, 7.53), (60.0, 3.54), (80.0, 0.36))),
    )
    for angle, loss in rows
)

CLEAR_GLASS = "clear_glass"
DRYWALL = "drywall"

_PARTITION = tuple(
    PartitionRecord(f, material, tx, rx, mean, std)
    for material, per_band in (
        (CLEAR_GLASS, (
            (28e9, (("V", "V", 1.53, 0.60), ("V", "H", 20.63, 1.32),
                    ("H", "V", 22.25, 0.88), ("H", "H", 1.48, 0.54))),
            (73e9, (("V", "V", 7.17, 0.17), ("V", "H", 37.65, 0.53),
                    ("H", "V", 36.92, 1.11), ("H", "H", 7.15, 0.44))),
            (142e9, (("V", "V", 10.22, 0.22), ("V", "H", 46.92, 2.05),
                     ("H", "V", 37.37, 1.79), ("H", "H", 10.43, 0.55))),
        )),
        (DRYWALL, (
            (28e9, (("V", "V", 4.15, 0.59), ("V", "H", 25.59, 2.85),
                    ("H", "V", 25.81, 0.65), ("H", "H", 3.31, 1.13))),
            (73e9, (("V", "V", 2.57, 0.61), ("V", "H", 24.97, 0.58),
                    ("H", "V", 23.38, 0.65), ("H", "H", 3.17, 0.68))),
            (142e9, (("V", "V", 8.46, 1.22), ("V", "H", 27.28, 1.77),
                     ("H", "V", 26.00, 1.42), ("H", "H", 9.31, 0.61))),
        )),
    )
    for f, rows in per_band
    for tx, rx, mean, std in rows
)

_CI_FITS = tuple(
    CiFitRecord(f, env, ple, sigma)
    for env, rows in (
        (Environment.LOS, ((28e9, 1.70, 2.50), (73e9, 1.60, 3.20), (142e9, 1.99, 2.71))),
        (Environment.NLOS_BEST, ((28e9, 3.00, 10.80), (73e9, 3.40, 11.80), (142e9, 3.03, 6.91))),
        (Environment.NLOS, ((28e9, 4.40, 11.60), (73e9, 5.30, 15.70), (142e9, 4.70, 14.10))),
    )
    for f, ple, sigma in rows
)

_MATERIALS = (
    Material(DRYWALL, 0.145, ((28e9, 4.7), (73e9, 5.2), (142e9, 6.4))),
    Material(CLEAR_GLASS, 0.006, ()),
)


@dataclass(frozen=True)
class PaperDataset:
    """Immutable bundle of the embedded reference tables."""

    sounders: tuple[SounderBand, ...]
    reflection: tuple[ReflectionSample, ...]
    partition: tuple[PartitionRecord, ...]
    ci_fits: tuple[CiFitRecord, ...]
    materials: tuple[Material, ...]

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(s.band.center_frequency_hz for s in self.sounders)

    def sounder(self, freq_hz: float) -> SounderBand:
        for s in self.sounders:
            if same_freq(s.band.center_frequency_hz, freq_hz):
                return s
        raise MissingEntryError(f"no sounder data at {freq_hz} Hz")

    def xpd_db(self, freq_hz: float) -> float:
        return self.sounder(freq_hz).xpd_db

    def arc_antenna(self, freq_hz: float) -> AntennaSpec:
        return self.sounder(freq_hz).arc_antenna

    def reflection_samples(self, freq_hz: float | None = None) -> tuple[ReflectionSample, ...]:
        if freq_hz is None:
            return self.reflection
        return tuple(s for s in self.reflection if same_freq(s.freq_hz, freq_hz))

    def reflection_loss_db(self, freq_hz: float, incident_angle_deg: float) -> float:
        for s in self.reflection_samples(freq_hz):
            if math.isclose(s.incident_angle_deg, incident_angle_deg, abs_tol=1e-9):
                return s.reflection_loss_db
        raise MissingEntryError(f"no reflection entry at {freq_hz} Hz, {incident_angle_deg} deg")

    def partition_records(self, material_name: str | None = None,
                          freq_hz: float | None = None) -> tuple[PartitionRecord, ...]:
        out = self.partition
        if material_name is not None:
            out = tuple(r for r in out if r.material_name == material_name)
        if freq_hz is not None:
            out = tuple(r for r in out if same_freq(r.freq_hz, freq_hz))
        return out

    def partition_record(self, material_name: str, freq_hz: float,
                         tx_pol, rx_pol) -> PartitionRecord:
        try:
            tx_pol = Polarization(tx_pol)
            rx_pol = Polarization(rx_pol)
        except ValueError as err:
            raise MissingEntryError(str(err)) from None
        for r in self.partition_records(material_name, freq_hz):
            if r.tx_pol is tx_pol and r.rx_pol is rx_pol:
                return r
        raise MissingEntryError(
            f"no partition entry for {material_name} {tx_pol.value}-{rx_pol.value} at {freq_hz} Hz")

    def partition_mean_db(self, material_name: str, freq_hz: float, tx_pol, rx_pol) -> float:
        return self.partition_record(material_name, freq_hz, tx_pol, rx_pol).mean_loss_db

    def ci_fit(self, freq_hz: float, environment) -> CiFitRecord:
        try:
            environment = Environment(environment)
        except ValueError as err:
            raise MissingEntryError(str(err)) from None
        for r in self.ci_fits:
            if r.environment is environment and same_freq(r.freq_hz, freq_hz):
                return r
        raise MissingEntryError(f"no CI fit for {environment.value} at {freq_hz} Hz")

    def material(self, name: str) -> Material:
        for m in self.materials:
            if m.name == name:
                return m
        raise MissingEntryError(f"unknown material {name!r}")

    def permittivity(self, freq_hz: float) -> float:
        """Drywall relative permittivity estimated for the given band."""
        return self.material(DRYWALL).eps_r_at(freq_hz)


@lru_cache(maxsize=1)
def paper_dataset() -> PaperDataset:
    """The embedded reference tables; the same frozen instance every call."""
    return PaperDataset(_SOUNDERS, _REFLECTION, _PARTITION, _CI_FITS, _MATERIALS)


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------

# The loaders build samples positionally: these follow the dataclass fields.
PATH_LOSS_COLUMNS = (
    "freq_hz", "tx_id", "rx_id", "distance_m", "environment",
    "tx_az_deg", "tx_el_deg", "rx_az_deg", "rx_el_deg",
    "tx_pol", "rx_pol", "path_loss_db",
)
REFLECTION_COLUMNS = ("freq_hz", "incident_angle_deg", "reflection_loss_db")
PATTERN_COLUMNS = ("observation_angle_deg", "relative_power_db")


def path_loss_row(sample: PathLossSample) -> list:
    """The sample's values in PATH_LOSS_COLUMNS order, enums as their text."""
    return [sample.freq_hz, sample.tx_id, sample.rx_id, sample.distance_m,
            sample.environment.value, sample.tx_az_deg, sample.tx_el_deg,
            sample.rx_az_deg, sample.rx_el_deg, sample.tx_pol.value,
            sample.rx_pol.value, sample.path_loss_db]


def _read_csv(path, columns: Sequence[str], numeric: Sequence[str], build) -> list:
    """The one CSV reader: ``build(*cells)`` per data row, cells in ``columns`` order.

    Columns are matched by header name; a repeated name reads its last copy.
    Cells of ``numeric`` columns become finite floats, the rest stay text.
    Blank lines are skipped and not counted; errors name the first offending
    data row (1-based, header excluded), and a bad number in a row is
    reported before an absent text cell or an invariant of ``build``.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        index = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in columns if c not in index]
        if missing:
            raise MissingColumnError(f"missing column(s) {missing} in {path}")
        picks = [index[c] for c in columns]
        width = max(picks) + 1
        parsed = [k for k, c in enumerate(columns) if c in numeric]
        out = []
        row = 0
        for cells in reader:
            if not cells:
                continue
            row += 1
            cells += [None] * (width - len(cells))
            values = [cells[i] for i in picks]
            for k in parsed:
                raw = values[k]
                try:
                    values[k] = float(raw)
                except (TypeError, ValueError):
                    raise BadNumericError(row, columns[k], raw or "") from None
                if not math.isfinite(values[k]):
                    raise BadNumericError(row, columns[k], raw)
            try:
                if None in values:
                    raise InvariantViolationError(
                        f"no cell for column {columns[values.index(None)]!r}")
                out.append(build(*values))
            except InvariantViolationError as err:
                raise InvariantViolationError(str(err), row=row) from None
    return out


def load_path_loss_csv(path) -> list[PathLossSample]:
    """Parse a directional path-loss CSV into validated samples.

    Errors name the first offending data row (1-based, header excluded).
    """
    return _read_csv(path, PATH_LOSS_COLUMNS,
                     ("freq_hz", "distance_m", "tx_az_deg", "tx_el_deg",
                      "rx_az_deg", "rx_el_deg", "path_loss_db"),
                     PathLossSample)


def save_path_loss_csv(samples: Iterable[PathLossSample], path) -> None:
    """Write samples in the canonical schema; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(PATH_LOSS_COLUMNS)
        writer.writerows(map(path_loss_row, samples))


def load_reflection_csv(path) -> list[ReflectionSample]:
    return _read_csv(path, REFLECTION_COLUMNS, REFLECTION_COLUMNS, ReflectionSample)


def load_pattern_csv(path) -> list[tuple[float, float]]:
    """(observation angle, power dB) pairs from a scatter-pattern CSV."""
    return _read_csv(path, PATTERN_COLUMNS, PATTERN_COLUMNS, lambda *cells: cells)


_DUPLICATE_KEY_FIELDS = ("tx_id", "rx_id", "tx_az_deg", "tx_el_deg",
                         "rx_az_deg", "rx_el_deg", "tx_pol", "rx_pol")


@dataclass(frozen=True)
class ValidationReport:
    los_count: int
    nlos_count: int
    distance_min: float | None
    distance_max: float | None
    duplicate_keys: tuple[tuple, ...]


def validate_dataset(samples: Sequence[PathLossSample]) -> ValidationReport:
    """Summarize a sample set; purely informational, never mutates input.

    Duplicates are distinct (tx, rx, pointing angles, polarization) keys seen
    more than once; they are reported, not rejected.
    """
    seen = Counter(map(operator.attrgetter(*_DUPLICATE_KEY_FIELDS), samples))
    duplicates = tuple(k for k, count in seen.items() if count > 1)
    distances = [s.distance_m for s in samples]
    return ValidationReport(
        los_count=sum(1 for s in samples if s.environment is Environment.LOS),
        nlos_count=sum(1 for s in samples if s.environment is Environment.NLOS),
        distance_min=min(distances) if distances else None,
        distance_max=max(distances) if distances else None,
        duplicate_keys=duplicates,
    )
