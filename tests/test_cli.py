import json
import math
import subprocess
import sys
import warnings

import pytest

from mmwprop.cli import dispatch
from mmwprop.datasets import load_path_loss_csv
from mmwprop.pathloss import fspl_db
from mmwprop.reflection import reflection_loss_db

PATH_LOSS_HEADER = ("freq_hz,tx_id,rx_id,distance_m,environment,tx_az_deg,"
                    "tx_el_deg,rx_az_deg,rx_el_deg,tx_pol,rx_pol,path_loss_db")


def run_ok(argv):
    result = dispatch(argv)
    assert result.exit_code == 0, result.stderr
    assert result.stderr == ""
    return json.loads(result.stdout)


@pytest.fixture
def path_loss_csv(tmp_path):
    anchor = fspl_db(142e9, 1.0)
    rows = [PATH_LOSS_HEADER]
    # noiseless free-space NLOS sweep plus two LOS rows and a duplicate key
    for i, d in enumerate((1.5, 2.0, 4.0, 8.0, 16.0)):
        pl = anchor + 20.0 * math.log10(d)
        rows.append(f"142e9,tx1,rx{i % 2},{d},NLOS,{10.0 * i},0,0,0,V,V,{pl!r}")
    rows.append(f"142e9,tx1,rx9,3.0,LOS,0,0,0,0,V,V,{anchor + 9.0!r}")
    rows.append(f"142e9,tx1,rx9,3.5,LOS,0,0,0,0,V,V,{anchor + 10.0!r}")
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def reflection_csv(tmp_path):
    lines = ["freq_hz,incident_angle_deg,reflection_loss_db"]
    for angle in (10.0, 30.0, 60.0, 80.0):
        lines.append(f"142e9,{angle},{reflection_loss_db(angle, 5.2)!r}")
    path = tmp_path / "refl.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        result = dispatch(["warp-drive"])
        assert result.exit_code == 1
        assert "usage" in result.stderr

    def test_missing_required_argument(self):
        result = dispatch(["fresnel", "--eps", "6.4"])
        assert result.exit_code == 1

    def test_missing_file_is_data_error(self):
        result = dispatch(["fit-ci", "--input", "missing.csv", "--freq", "142e9"])
        assert result.exit_code == 2
        assert "FileNotFound" in result.stderr

    def test_domain_error_named_in_stderr(self):
        result = dispatch(["budget", "--refl-db", "0", "--part-db", "3"])
        assert result.exit_code == 2
        assert result.stderr.startswith("OverUnityBudget")
        assert result.stdout == ""

    def test_invariant_error_exit_code(self):
        result = dispatch(["fresnel", "--eps", "0.5", "--angle", "0"])
        assert result.exit_code == 2
        assert result.stderr.startswith("InvariantViolation")

    def test_input_directory_is_data_error(self, tmp_path):
        result = dispatch(["validate", "--input", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("IsADirectory: ")
        assert result.stdout == ""

    def test_output_into_missing_directory_is_data_error(self, tmp_path):
        out = tmp_path / "missing" / "x.json"
        result = dispatch(["fspl", "--freq", "28e9", "--distance-m", "1",
                           "--output", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("FileNotFound: ")
        assert result.stdout == ""

    def test_non_utf8_input_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("freq_hz,incident_angle_deg,reflection_loss_db\n"
                         "142e9,30,7.53 \u00b0\n".encode("latin-1"))
        result = dispatch(["estimate-eps", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("UnicodeDecode: ")

    def test_malformed_csv_is_data_error(self, tmp_path):
        path = tmp_path / "huge-field.csv"
        path.write_text("freq_hz,incident_angle_deg,reflection_loss_db\n"
                        + '"' + "x" * 200_000 + "\n", encoding="utf-8")
        result = dispatch(["estimate-eps", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("Csv: field larger than field limit")

    @pytest.mark.parametrize("argv", [["validate"], ["reduce-directional", "--format", "csv"],
                                      ["fit-ci", "--freq", "142e9"]])
    def test_short_row_is_invariant_violation(self, argv, tmp_path):
        # tx_id last in the header, and the row stops before it
        path = tmp_path / "short.csv"
        columns = PATH_LOSS_HEADER.replace("tx_id,", "") + ",tx_id"
        path.write_text(columns + "\n142e9,rx1,2.0,NLOS,0,0,0,0,V,V,90\n", encoding="utf-8")
        result = dispatch([argv[0], "--input", str(path), *argv[1:]])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "InvariantViolation: data row 1: no cell for column 'tx_id'\n"

    def test_byte_order_mark_is_accepted(self, reflection_csv, tmp_path):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + reflection_csv.read_bytes())
        plain = dispatch(["fit-linear", "--input", str(reflection_csv)])
        assert dispatch(["fit-linear", "--input", str(marked)]) == plain
        assert plain.exit_code == 0


class TestFiniteFloatArguments:
    @pytest.mark.parametrize("argv", [
        ["fspl", "--freq", "28e9", "--distance-m", "inf"],
        ["fspl", "--freq", "nan", "--distance-m", "1"],
        ["ci-eval", "--freq", "1e400", "--ple", "2", "--distance-m", "10"],
        ["partition", "--tx-power-dbm", "0", "--rx-power-dbm", "-80",
         "--distance-m", "3", "--freq", "142e9", "--gains-dbi", "27", "inf"],
    ])
    def test_non_finite_value_is_usage_error(self, argv):
        result = dispatch(argv)
        assert result.exit_code == 1
        assert "not a finite number" in result.stderr
        assert result.stdout == ""

    def test_non_numeric_message_unchanged(self):
        result = dispatch(["fspl", "--freq", "abc", "--distance-m", "1"])
        assert result.exit_code == 1
        assert "argument --freq: invalid float value: 'abc'" in result.stderr


class TestFresnel:
    def test_predicted_drywall_loss(self):
        payload = run_ok(["fresnel", "--eps", "6.4", "--angle", "0"])
        assert payload["loss_db"] == pytest.approx(7.25, abs=0.05)
        assert payload["magnitude"] == pytest.approx(0.4334, abs=1e-4)
        assert payload["gamma_perp"] == pytest.approx(-0.4334, abs=1e-4)

    def test_determinism(self):
        first = dispatch(["fresnel", "--eps", "4.7", "--angle", "30"])
        second = dispatch(["fresnel", "--eps", "4.7", "--angle", "30"])
        assert first.stdout == second.stdout


class TestReflectionCommands:
    def test_estimate_eps_round_trip(self, reflection_csv):
        payload = run_ok(["estimate-eps", "--input", str(reflection_csv)])
        assert payload["eps_r"] == pytest.approx(5.2, abs=1e-3)
        assert payload["samples_used"] == 4

    def test_estimate_eps_too_few(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("freq_hz,incident_angle_deg,reflection_loss_db\n"
                        "142e9,30,7.53\n", encoding="utf-8")
        result = dispatch(["estimate-eps", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("TooFewSamples")

    def test_estimate_eps_at_search_bound(self, tmp_path):
        path = tmp_path / "lossless.csv"
        path.write_text("freq_hz,incident_angle_deg,reflection_loss_db\n"
                        "28e9,10,0\n28e9,30,0\n", encoding="utf-8")
        result = dispatch(["estimate-eps", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith("EstimateAtBound: ")
        assert result.stdout == ""

    def test_freq_filter_uses_relative_match(self, tmp_path):
        lines = ["freq_hz,incident_angle_deg,reflection_loss_db"]
        lines += [f"28e9,{a},{reflection_loss_db(a, 4.7)!r}" for a in (10.0, 30.0, 60.0)]
        lines += [f"73e9,{a},{reflection_loss_db(a, 5.2)!r}" for a in (10.0, 30.0)]
        path = tmp_path / "two_bands.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        payload = run_ok(["estimate-eps", "--input", str(path), "--freq", "2.80000000001e10"])
        assert payload["samples_used"] == 3
        assert payload["eps_r"] == pytest.approx(4.7, abs=1e-3)

    def test_fit_linear(self, reflection_csv):
        payload = run_ok(["fit-linear", "--input", str(reflection_csv)])
        assert payload["slope"] > 0.0
        assert payload["samples_used"] == 4


class TestScatterCommands:
    def test_json_summary(self):
        payload = run_ok(["scatter-pattern", "--eps", "6.4",
                          "--incident-angle", "30", "--hpbw", "8"])
        assert payload["peak_angle"] == 30.0
        assert payload["backscatter_margin_db"] > 20.0
        assert payload["smooth"] is True
        angles = [p["observation_angle_deg"] for p in payload["pattern"]]
        assert angles == sorted(angles)
        assert max(p["relative_power_db"] for p in payload["pattern"]) == 0.0

    def test_csv_output_and_backscatter_round_trip(self, tmp_path):
        out = tmp_path / "pattern.csv"
        result = dispatch(["scatter-pattern", "--eps", "6.4",
                           "--incident-angle", "30", "--hpbw", "8",
                           "--format", "csv", "--output", str(out)])
        assert result.exit_code == 0
        assert result.stdout == ""
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "observation_angle_deg,relative_power_db"
        assert len(lines) == 18  # 17 sweep angles + header

        summary = run_ok(["backscatter", "--input", str(out),
                          "--incident-angle", "30"])
        direct = run_ok(["scatter-pattern", "--eps", "6.4",
                         "--incident-angle", "30", "--hpbw", "8"])
        assert summary["peak_angle"] == 30.0
        # CSV carries 4 decimals, so allow a small quantization difference
        assert summary["backscatter_margin_db"] == pytest.approx(
            direct["backscatter_margin_db"], abs=0.01)

    def test_backscatter_bad_numeric_cell(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("observation_angle_deg,relative_power_db\n"
                        "-10,-20\n30,abc\n", encoding="utf-8")
        result = dispatch(["backscatter", "--input", str(path),
                           "--incident-angle", "30"])
        assert result.exit_code == 2
        assert result.stderr.startswith(
            "BadNumeric: data row 2, column 'relative_power_db':")

    def test_backscatter_missing_column(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("observation_angle_deg,power_db\n-10,-20\n30,0\n",
                        encoding="utf-8")
        result = dispatch(["backscatter", "--input", str(path),
                           "--incident-angle", "30"])
        assert result.exit_code == 2
        assert result.stderr.startswith("MissingColumn: ")

    @pytest.mark.parametrize("extra, message", [
        (["--diffuse-sr", "-1"], "diffuse_solid_angle_sr must be >= 0"),
        (["--hpbw", "0", "--spread-deg", "0"], "antenna_hpbw_deg must lie in (0, 180)"),
        (["--step", "0"], "sweep step must be > 0"),
        (["--hpbw", "-5"], "antenna_hpbw_deg must lie in (0, 180)"),
    ])
    def test_out_of_range_argument_is_invariant_violation(self, extra, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            result = dispatch(["scatter-pattern", "--eps", "6.4", "--incident-angle", "30",
                               *extra])
        assert result.exit_code == 2
        assert result.stderr == f"InvariantViolation: {message}\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("extra, message", [
        (["--step", "1e-310"], "sweep step must be >= 0.01 deg"),
        (["--step", "1e-6"], "sweep step must be >= 0.01 deg"),
        (["--alpha-r", "99999999999999999999999"],
         "alpha_r must be an integer in [1, 1000000]"),
        (["--alpha-i", "1000001"], "alpha_i must be an integer in [1, 1000000]"),
        (["--hpbw", "1e-200", "--spread-deg", "0", "--s-coeff", "0"],
         "antenna_hpbw_deg must be >= 1e-06"),
    ])
    def test_work_and_range_bounds(self, extra, message):
        result = dispatch(["scatter-pattern", "--eps", "6.4", "--incident-angle", "30",
                           *extra])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"InvariantViolation: {message}\n"

    def test_bounds_themselves_are_accepted(self):
        payload = run_ok(["scatter-pattern", "--eps", "6.4", "--incident-angle", "30",
                          "--alpha-r", "1000000", "--hpbw", "1e-6", "--spread-deg", "0"])
        assert payload["peak_angle"] == 30.0
        lines = dispatch(["scatter-pattern", "--eps", "6.4", "--incident-angle", "30",
                          "--step", "0.01", "--format", "csv"]).stdout.splitlines()
        assert len(lines) == 1 + 16001

    def test_pattern_without_scattering_stays_finite(self):
        # the specular term alone, 20 to 80 deg off its axis, once gave -inf
        argv = ["scatter-pattern", "--eps", "6.4", "--incident-angle", "30",
                "--hpbw", "1", "--s-coeff", "0", "--spread-deg", "0"]
        result = dispatch(argv)
        assert result.exit_code == 0, result.stderr

        def reject(constant):
            raise ValueError(f"non-finite JSON number {constant}")
        payload = json.loads(result.stdout, parse_constant=reject)
        levels = [p["relative_power_db"] for p in payload["pattern"]]
        assert max(levels) == 0.0 and min(levels) < -1e4
        csv_text = dispatch([*argv, "--format", "csv"]).stdout
        assert "inf" not in csv_text and "nan" not in csv_text

    def test_specular_angle_injected_into_sweep(self):
        payload = run_ok(["scatter-pattern", "--eps", "6.4",
                          "--incident-angle", "33", "--hpbw", "8"])
        assert payload["peak_angle"] == 33.0

    def test_off_grid_sweep_still_has_zero_peak(self):
        payload = run_ok(["scatter-pattern", "--eps", "4.7",
                          "--incident-angle", "42.5", "--hpbw", "10",
                          "--step", "5"])
        assert payload["peak_angle"] == 42.5


class TestPartitionCommands:
    def test_partition_loss(self):
        rx = -(10.22 + fspl_db(142e9, 3.0))
        payload = run_ok(["partition", "--tx-power-dbm", "0",
                          "--rx-power-dbm", repr(rx),
                          "--distance-m", "3", "--freq", "142e9"])
        assert payload["loss_db"] == pytest.approx(10.22, abs=1e-3)
        assert payload["negative_loss"] is False

    def test_partition_gain_subtraction(self):
        base = run_ok(["partition", "--tx-power-dbm", "0",
                       "--rx-power-dbm", "-80", "--distance-m", "3",
                       "--freq", "142e9"])
        with_gains = run_ok(["partition", "--tx-power-dbm", "0",
                             "--rx-power-dbm", "-80", "--distance-m", "3",
                             "--freq", "142e9", "--gains-dbi", "27", "27"])
        assert with_gains["loss_db"] == pytest.approx(
            base["loss_db"] + 54.0, abs=1e-9)

    def test_xpd(self):
        payload = run_ok(["xpd", "--co-db", "80", "--cross-db", "124.18"])
        assert payload["xpd_db"] == pytest.approx(44.18, abs=1e-9)

    def test_depol_margin_from_mean(self):
        payload = run_ok(["depol-margin", "--cross-mean-db", "25.70",
                          "--xpd-db", "19.30"])
        assert payload["margin_db"] == pytest.approx(6.40, abs=1e-9)

    def test_depol_margin_from_pair(self):
        payload = run_ok(["depol-margin", "--vh-db", "25.59", "--hv-db", "25.81",
                          "--xpd-db", "19.30"])
        assert payload["margin_db"] == pytest.approx(6.40, abs=1e-9)

    def test_depol_margin_requires_inputs(self):
        result = dispatch(["depol-margin", "--xpd-db", "19.30"])
        assert result.exit_code == 1

    def test_budget(self):
        payload = run_ok(["budget", "--refl-db", "7.25", "--part-db", "8.46"])
        budget = payload["budget"]
        assert budget["reflected"] == pytest.approx(0.1884, abs=5e-4)
        assert budget["transmitted"] == pytest.approx(0.1426, abs=5e-4)
        assert budget["absorbed"] == pytest.approx(0.6691, abs=5e-4)


class TestPathLossCommands:
    def test_fspl(self):
        payload = run_ok(["fspl", "--freq", "142e9", "--distance-m", "1"])
        assert payload["fspl_db"] == pytest.approx(75.4936, abs=1e-4)

    def test_ci_eval(self):
        payload = run_ok(["ci-eval", "--freq", "142e9", "--ple", "1.99",
                          "--distance-m", "10"])
        assert payload["path_loss_db"] == pytest.approx(95.3936, abs=1e-4)

    def test_fit_ci_all(self, path_loss_csv):
        payload = run_ok(["fit-ci", "--input", str(path_loss_csv),
                          "--freq", "142e9", "--env", "NLOS"])
        assert payload["ple"] == pytest.approx(2.0, abs=1e-6)
        assert payload["sigma_db"] == pytest.approx(0.0, abs=1e-6)
        assert payload["n_samples"] == 5
        assert payload["env"] == "NLOS"

    def test_fit_ci_nlos_best(self, path_loss_csv):
        payload = run_ok(["fit-ci", "--input", str(path_loss_csv),
                          "--freq", "142e9", "--env", "NLOS_BEST"])
        assert payload["n_samples"] == 2  # one best pointing per rx location

    def test_reduce_directional_json(self, path_loss_csv):
        payload = run_ok(["reduce-directional", "--input", str(path_loss_csv)])
        assert payload["los_count"] == 2
        assert payload["nlos_count"] == 5
        assert payload["nlos_best_count"] == 2

    def test_reduce_directional_csv_is_loadable(self, path_loss_csv, tmp_path):
        out = tmp_path / "best.csv"
        result = dispatch(["reduce-directional", "--input", str(path_loss_csv),
                           "--format", "csv", "--output", str(out)])
        assert result.exit_code == 0
        best = load_path_loss_csv(out)
        assert len(best) == 2

    def test_validate(self, path_loss_csv):
        payload = run_ok(["validate", "--input", str(path_loss_csv)])
        assert payload["los_count"] == 2
        assert payload["nlos_count"] == 5
        assert payload["distance_min_m"] == 1.5
        assert payload["distance_max_m"] == 16.0
        # the two LOS rows share tx/rx ids, pointing angles and polarization
        assert len(payload["duplicates"]) == 1


class TestPaperTables:
    def test_single_table(self):
        payload = run_ok(["paper-tables", "--table", "II"])
        rows = payload["II"]
        assert len(rows) == 12
        first = rows[0]
        assert first["freq_hz"] == 28e9
        assert first["reflection_loss_db"] == 12.98

    def test_full_dump_deterministic(self):
        first = dispatch(["paper-tables"])
        second = dispatch(["paper-tables"])
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert sorted(payload) == ["I", "II", "III", "IV", "V"]

    def test_output_file(self, tmp_path):
        out = tmp_path / "tables.json"
        result = dispatch(["paper-tables", "--output", str(out)])
        assert result.exit_code == 0
        assert result.stdout == ""
        assert json.loads(out.read_text(encoding="utf-8"))["V"][0]["ple"] == 1.7


def test_module_entry_point_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "mmwprop", "fspl", "--freq", "28e9",
         "--distance-m", "1"],
        capture_output=True, text=True)
    assert completed.returncode == 0
    assert json.loads(completed.stdout)["fspl_db"] == pytest.approx(61.3909, abs=1e-4)


_COLD_START = """
import json, sys
import mmwprop, mmwprop.cli
code = mmwprop.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


def _run_fresh(argv):
    """Run the CLI in a new interpreter; pytest itself has numpy loaded."""
    completed = subprocess.run([sys.executable, "-c", _COLD_START, *argv],
                               capture_output=True, text=True)
    status = json.loads(completed.stderr.splitlines()[-1])
    return completed.stdout, status


def test_scalar_commands_do_not_load_numpy():
    stdout, status = _run_fresh(["fspl", "--freq", "28e9", "--distance-m", "1"])
    assert status == {"code": 0, "numpy": False}
    assert json.loads(stdout)["fspl_db"] == pytest.approx(61.3909, abs=1e-4)


def test_estimate_eps_loads_numpy_only_for_the_search(reflection_csv, tmp_path):
    stdout, status = _run_fresh(["estimate-eps", "--input", str(reflection_csv)])
    assert status == {"code": 0, "numpy": True}
    assert json.loads(stdout)["eps_r"] == pytest.approx(5.2, abs=1e-3)

    one = tmp_path / "one.csv"
    one.write_text("freq_hz,incident_angle_deg,reflection_loss_db\n142e9,30,7.53\n",
                   encoding="utf-8")
    _, status = _run_fresh(["estimate-eps", "--input", str(one)])
    assert status == {"code": 2, "numpy": False}

    _, status = _run_fresh(["fit-linear", "--input", str(reflection_csv)])
    assert status == {"code": 0, "numpy": False}


# scatter-pattern --eps 6.4 --incident-angle 30 --hpbw 8 --format csv
_PATTERN_GOLDEN = """\
observation_angle_deg,relative_power_db
-80.0000,-38.4280
-70.0000,-36.5182
-60.0000,-34.7081
-50.0000,-33.0100
-40.0000,-31.4517
-30.0000,-30.0628
-20.0000,-28.8674
-10.0000,-27.8826
0.0000,-27.1192
10.0000,-25.7331
20.0000,-8.2459
30.0000,0.0000
40.0000,-8.2478
50.0000,-25.9419
60.0000,-27.5371
70.0000,-28.5104
80.0000,-29.7779
"""


def test_scatter_pattern_loads_no_numpy_and_gives_golden_output():
    stdout, status = _run_fresh(["scatter-pattern", "--eps", "6.4", "--incident-angle",
                                 "30", "--hpbw", "8", "--format", "csv"])
    assert status == {"code": 0, "numpy": False}
    assert stdout == _PATTERN_GOLDEN


def test_backscatter_loads_no_numpy(tmp_path):
    path = tmp_path / "pattern.csv"
    path.write_text(_PATTERN_GOLDEN, encoding="utf-8")
    stdout, status = _run_fresh(["backscatter", "--input", str(path),
                                 "--incident-angle", "30"])
    assert status == {"code": 0, "numpy": False}
    assert json.loads(stdout)["peak_angle"] == 30.0
