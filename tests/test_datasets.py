import pytest

from mmwprop.datasets import (
    CLEAR_GLASS,
    DRYWALL,
    Environment,
    PathLossSample,
    Polarization,
    ReflectionSample,
    load_path_loss_csv,
    load_pattern_csv,
    load_reflection_csv,
    paper_dataset,
    same_freq,
    save_path_loss_csv,
    validate_dataset,
)
from mmwprop.errors import (
    BadNumericError,
    InvariantViolationError,
    MissingColumnError,
    MissingEntryError,
    MmwPropError,
)

HEADER = ("freq_hz,tx_id,rx_id,distance_m,environment,tx_az_deg,tx_el_deg,"
          "rx_az_deg,rx_el_deg,tx_pol,rx_pol,path_loss_db")


def sample(**overrides):
    base = dict(freq_hz=142e9, tx_id="tx1", rx_id="rx1", distance_m=5.0,
                environment="NLOS", tx_az_deg=0.0, tx_el_deg=0.0,
                rx_az_deg=0.0, rx_el_deg=0.0, tx_pol="V", rx_pol="V",
                path_loss_db=100.0)
    base.update(overrides)
    return PathLossSample(**base)


class TestEmbeddedTables:
    def test_sounder_summary(self):
        data = paper_dataset()
        assert data.xpd_db(28e9) == 19.30
        assert data.xpd_db(73e9) == 28.94
        assert data.xpd_db(142e9) == 44.18
        assert [s.rf_bandwidth_hz for s in data.sounders] == [1e9, 1e9, 1e9]
        assert [(a.hpbw_deg, a.gain_dbi) for a in data.sounder(28e9).antennas] == \
            [(30.0, 15.0), (10.0, 24.5)]
        assert [(a.hpbw_deg, a.gain_dbi) for a in data.sounder(73e9).antennas] == \
            [(15.0, 20.0), (7.0, 27.0)]
        assert [(a.hpbw_deg, a.gain_dbi) for a in data.sounder(142e9).antennas] == \
            [(8.0, 27.0)]

    def test_arc_antennas_are_the_narrow_horns(self):
        data = paper_dataset()
        assert [data.arc_antenna(f).hpbw_deg for f in data.frequencies] == \
            [10.0, 7.0, 8.0]

    def test_reflection_losses(self):
        data = paper_dataset()
        expected = {
            (28e9, 10.0): 12.98, (28e9, 30.0): 4.22,
            (28e9, 60.0): 4.06, (28e9, 80.0): 3.18,
            (73e9, 10.0): 12.65, (73e9, 30.0): 8.08,
            (73e9, 60.0): 3.16, (73e9, 80.0): 1.28,
            (142e9, 10.0): 9.81, (142e9, 30.0): 7.53,
            (142e9, 60.0): 3.54, (142e9, 80.0): 0.36,
        }
        assert len(data.reflection) == len(expected)
        for (freq, angle), loss in expected.items():
            assert data.reflection_loss_db(freq, angle) == loss

    def test_reflection_sign_convention(self):
        # stored positive magnitudes negate to the printed negative dB entries
        printed = {(142e9, 10.0): -9.81, (28e9, 30.0): -4.22}
        data = paper_dataset()
        for (freq, angle), value in printed.items():
            assert -data.reflection_loss_db(freq, angle) == pytest.approx(
                value, abs=0.01)

    def test_partition_tables(self):
        data = paper_dataset()
        assert data.partition_mean_db(CLEAR_GLASS, 142e9, "V", "V") == 10.22
        assert data.partition_mean_db(CLEAR_GLASS, 142e9, "V", "H") == 46.92
        assert data.partition_mean_db(DRYWALL, 28e9, "H", "V") == 25.81
        assert data.partition_record(DRYWALL, 73e9, "H", "H").std_db == 0.68
        assert len(data.partition_records(CLEAR_GLASS)) == 12
        assert len(data.partition_records(DRYWALL)) == 12

    def test_ci_fit_table(self):
        data = paper_dataset()
        assert data.ci_fit(142e9, "LOS").ple == 1.99
        assert data.ci_fit(142e9, "LOS").sigma_db == 2.71
        assert data.ci_fit(73e9, "NLOS").sigma_db == 15.70
        assert data.ci_fit(28e9, "NLOS_BEST").ple == 3.00

    def test_materials(self):
        data = paper_dataset()
        assert data.permittivity(28e9) == 4.7
        assert data.permittivity(73e9) == 5.2
        assert data.permittivity(142e9) == 6.4
        assert data.material(DRYWALL).thickness_m == 0.145
        assert data.material(CLEAR_GLASS).thickness_m == 0.006
        with pytest.raises(KeyError):
            data.material(CLEAR_GLASS).eps_r_at(142e9)

    def test_referential_transparency(self):
        assert paper_dataset() is paper_dataset()
        assert paper_dataset() == paper_dataset()

    def test_unknown_lookups(self):
        data = paper_dataset()
        with pytest.raises(KeyError):
            data.xpd_db(60e9)
        with pytest.raises(KeyError):
            data.reflection_loss_db(142e9, 45.0)
        with pytest.raises(KeyError):
            data.ci_fit(142e9, "LOS_BEST")

    @pytest.mark.parametrize("lookup", [
        lambda d, key: d.ci_fit(73e9, key(Environment.NLOS)),
        lambda d, key: d.ci_fit(142e9, key(Environment.NLOS_BEST)),
        lambda d, key: d.partition_record(DRYWALL, 28e9, key(Polarization.V),
                                          key(Polarization.H)),
        lambda d, key: d.partition_record(CLEAR_GLASS, 142e9, key(Polarization.H),
                                          key(Polarization.V)),
    ])
    def test_text_and_enum_keys_find_the_same_row(self, lookup):
        """A str-enum member equals its text, so either key finds the row."""
        data = paper_dataset()
        assert lookup(data, lambda member: member) is lookup(data, lambda member: member.value)

    @pytest.mark.parametrize("lookup, message", [
        (lambda d: d.xpd_db(60e9), "no sounder data at 60000000000.0 Hz"),
        (lambda d: d.arc_antenna(60e9), "no sounder data at 60000000000.0 Hz"),
        (lambda d: d.reflection_loss_db(142e9, 45.0),
         "no reflection entry at 142000000000.0 Hz, 45.0 deg"),
        (lambda d: d.ci_fit(142e9, "LOS_BEST"), "no CI fit for LOS_BEST at 142000000000.0 Hz"),
        (lambda d: d.ci_fit(60e9, "LOS"), "no CI fit for LOS at 60000000000.0 Hz"),
        (lambda d: d.ci_fit(60e9, Environment.LOS), "no CI fit for LOS at 60000000000.0 Hz"),
        (lambda d: d.ci_fit(28e9, Polarization.V), "no CI fit for V at 28000000000.0 Hz"),
        (lambda d: d.partition_record(DRYWALL, 142e9, "V", "X"),
         "no partition entry for drywall V-X at 142000000000.0 Hz"),
        (lambda d: d.partition_record(DRYWALL, 142e9, Polarization.V, "X"),
         "no partition entry for drywall V-X at 142000000000.0 Hz"),
        (lambda d: d.partition_record(DRYWALL, 60e9, "V", "V"),
         "no partition entry for drywall V-V at 60000000000.0 Hz"),
        (lambda d: d.partition_mean_db(CLEAR_GLASS, 28e9, Polarization.H, "v"),
         "no partition entry for clear_glass H-v at 28000000000.0 Hz"),
        (lambda d: d.material("concrete"), "unknown material 'concrete'"),
        (lambda d: d.permittivity(60e9), "no permittivity for drywall at 60000000000.0 Hz"),
        (lambda d: d.material(CLEAR_GLASS).eps_r_at(142e9),
         "no permittivity for clear_glass at 142000000000.0 Hz"),
    ])
    def test_missing_entries_are_domain_errors(self, lookup, message):
        """The message names each key by its text, an enum member too."""
        with pytest.raises(MissingEntryError) as info:
            lookup(paper_dataset())
        assert isinstance(info.value, MmwPropError)
        assert isinstance(info.value, KeyError)
        assert str(info.value) == info.value.args[0] == message  # not quoted as KeyError does

    def test_same_freq_rule(self):
        assert same_freq(28e9, 2.80000000001e10)
        assert same_freq(142e9, 142e9 * (1 + 5e-10))
        assert not same_freq(142e9, 142e9 * (1 + 2e-9))
        assert not same_freq(28e9, 73e9)
        assert paper_dataset().sounder(2.80000000001e10).label == "28GHz"


class TestTypeInvariants:
    def test_reflection_sample_ranges(self):
        with pytest.raises(InvariantViolationError):
            ReflectionSample(142e9, 0.0, 5.0)
        with pytest.raises(InvariantViolationError):
            ReflectionSample(142e9, 95.0, 5.0)
        with pytest.raises(InvariantViolationError):
            ReflectionSample(142e9, 30.0, -0.1)

    def test_path_loss_sample_ranges(self):
        with pytest.raises(InvariantViolationError):
            sample(distance_m=0.5)
        with pytest.raises(InvariantViolationError):
            sample(path_loss_db=0.0)
        with pytest.raises(InvariantViolationError):
            sample(environment="NLOS_BEST")  # derived label, not a raw one
        with pytest.raises(InvariantViolationError):
            sample(tx_pol="X")

    def test_enum_coercion(self):
        s = sample(environment="LOS", tx_pol="H")
        assert s.environment is Environment.LOS
        assert s.tx_pol is Polarization.H


class TestPathLossCsv:
    def write(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
        return path

    def test_well_formed_rows(self, tmp_path):
        rows = [
            "142e9,tx1,rx1,5.0,LOS,0,0,10,0,V,V,88.5",
            "142e9,tx1,rx2,7.5,NLOS,45,0,90,8,V,H,121.0",
            "142e9,tx2,rx1,3.0,NLOS,0,-8,180,0,H,H,115.25",
        ]
        samples = load_path_loss_csv(self.write(tmp_path, rows))
        assert len(samples) == 3
        assert samples[0].environment is Environment.LOS
        assert samples[1].rx_pol is Polarization.H
        assert samples[2].path_loss_db == 115.25

    def test_header_only_is_empty(self, tmp_path):
        assert load_path_loss_csv(self.write(tmp_path, [])) == []

    def test_distance_below_reference_rejected(self, tmp_path):
        rows = ["142e9,tx1,rx1,0.5,LOS,0,0,0,0,V,V,88.5"]
        with pytest.raises(InvariantViolationError) as excinfo:
            load_path_loss_csv(self.write(tmp_path, rows))
        assert excinfo.value.row == 1

    def test_error_names_first_offending_row(self, tmp_path):
        rows = [
            "142e9,tx1,rx1,5.0,LOS,0,0,0,0,V,V,88.5",
            "142e9,tx1,rx1,5.0,BAD_ENV,0,0,0,0,V,V,88.5",
            "142e9,tx1,rx1,0.2,LOS,0,0,0,0,V,V,88.5",
        ]
        with pytest.raises(InvariantViolationError) as excinfo:
            load_path_loss_csv(self.write(tmp_path, rows))
        assert excinfo.value.row == 2

    def test_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("freq_hz,tx_id\n142e9,tx1\n", encoding="utf-8")
        with pytest.raises(MissingColumnError):
            load_path_loss_csv(path)

    def test_bad_numeric_names_row_and_column(self, tmp_path):
        rows = [
            "142e9,tx1,rx1,5.0,LOS,0,0,0,0,V,V,88.5",
            "142e9,tx1,rx1,oops,LOS,0,0,0,0,V,V,88.5",
        ]
        with pytest.raises(BadNumericError) as excinfo:
            load_path_loss_csv(self.write(tmp_path, rows))
        assert excinfo.value.row == 2
        assert excinfo.value.column == "distance_m"

    def test_non_finite_rejected(self, tmp_path):
        rows = ["142e9,tx1,rx1,5.0,LOS,0,0,0,0,V,V,nan"]
        with pytest.raises(BadNumericError):
            load_path_loss_csv(self.write(tmp_path, rows))

    def test_round_trip(self, tmp_path):
        samples = [
            sample(distance_m=5.125, path_loss_db=88.0625, tx_az_deg=137.5),
            sample(environment="LOS", distance_m=1.0 + 1e-12,
                   path_loss_db=100.1, rx_pol="H"),
            sample(tx_id="tx with space", path_loss_db=1 / 3),
        ]
        path = tmp_path / "round.csv"
        save_path_loss_csv(samples, path)
        assert load_path_loss_csv(path) == samples


class TestReflectionCsv:
    def test_load(self, tmp_path):
        path = tmp_path / "refl.csv"
        path.write_text(
            "freq_hz,incident_angle_deg,reflection_loss_db\n"
            "142e9,10,9.81\n142e9,80,0.36\n", encoding="utf-8")
        samples = load_reflection_csv(path)
        assert samples == [ReflectionSample(142e9, 10.0, 9.81),
                           ReflectionSample(142e9, 80.0, 0.36)]

    def test_invariant_names_row(self, tmp_path):
        path = tmp_path / "refl.csv"
        path.write_text(
            "freq_hz,incident_angle_deg,reflection_loss_db\n"
            "142e9,10,9.81\n142e9,95,0.36\n", encoding="utf-8")
        with pytest.raises(InvariantViolationError) as excinfo:
            load_reflection_csv(path)
        assert excinfo.value.row == 2


class TestPatternCsv:
    def test_rows_in_file_order(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("observation_angle_deg,relative_power_db\n"
                        "-10,-25.5\n30.0,0\n", encoding="utf-8")
        assert load_pattern_csv(path) == [(-10.0, -25.5), (30.0, 0.0)]

    def test_non_finite_cell_is_bad_numeric(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("observation_angle_deg,relative_power_db\n"
                        "-10,-25.5\n30,inf\n", encoding="utf-8")
        with pytest.raises(BadNumericError) as excinfo:
            load_pattern_csv(path)
        assert (excinfo.value.row, excinfo.value.column) == (2, "relative_power_db")


class TestValidateDataset:
    def test_empty(self):
        report = validate_dataset([])
        assert report.los_count == 0
        assert report.nlos_count == 0
        assert report.distance_min_m is None
        assert report.distance_max_m is None
        assert report.duplicates == ()

    def test_counts_and_range(self):
        samples = [sample(environment="LOS", distance_m=2.0, rx_az_deg=1.0),
                   sample(environment="LOS", distance_m=9.0, rx_az_deg=2.0),
                   sample(environment="NLOS", distance_m=4.0, rx_az_deg=3.0)]
        report = validate_dataset(samples)
        assert (report.los_count, report.nlos_count) == (2, 1)
        assert (report.distance_min_m, report.distance_max_m) == (2.0, 9.0)
        assert report.duplicates == ()

    def test_duplicates_reported_once(self):
        samples = [sample(), sample(), sample(rx_az_deg=90.0)]
        report = validate_dataset(samples)
        assert len(report.duplicates) == 1

    def test_duplicate_key_values_and_order(self):
        samples = [sample(tx_pol="H", rx_az_deg=30.0), sample(tx_pol="H", rx_az_deg=30.0),
                   sample(), sample(), sample(rx_id="rx2")]
        report = validate_dataset(samples)
        assert report.duplicates == (
            ("tx1", "rx1", 0.0, 0.0, 30.0, 0.0, Polarization.H, Polarization.V),
            ("tx1", "rx1", 0.0, 0.0, 0.0, 0.0, Polarization.V, Polarization.V),
        )

    def test_input_not_mutated(self):
        samples = [sample(), sample()]
        snapshot = list(samples)
        validate_dataset(samples)
        assert samples == snapshot
