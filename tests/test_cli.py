import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from mmwprop.cli import (
    COMMANDS,
    CommandResult,
    _csv_payload,
    build_command_parser,
    build_parser,
    dispatch,
    main,
)
from mmwprop.datasets import (
    CiFitRecord,
    ReflectionSample,
    ValidationReport,
    load_path_loss_csv,
    save_path_loss_csv,
)
from mmwprop.errors import NonFiniteResultError
from mmwprop.partition import PartitionLossResult
from mmwprop.pathloss import fspl_db
from mmwprop.reflection import PermittivityEstimate, reflection_loss_db

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

    @pytest.mark.parametrize("argv", [["validate"], ["reduce-directional", "--format", "csv"]])
    @pytest.mark.parametrize("row, column", [("142e9,,rx1,2.0,NLOS,0,0,0,0,V,V,90", "tx_id"),
                                             ("142e9,tx1,,2.0,NLOS,0,0,0,0,V,V,90", "rx_id"),
                                             ("142e9,,,2.0,NLOS,0,0,0,0,V,V,90", "tx_id")])
    def test_empty_id_is_invariant_violation(self, argv, row, column, tmp_path):
        path = tmp_path / "empty-id.csv"
        path.write_text(f"{PATH_LOSS_HEADER}\n142e9,tx1,rx1,2.0,NLOS,0,0,0,0,V,V,90\n{row}\n",
                        encoding="utf-8")
        result = dispatch([argv[0], "--input", str(path), *argv[1:]])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"InvariantViolation: data row 2: {column} must not be empty\n"

    def test_byte_order_mark_is_accepted(self, reflection_csv, tmp_path):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + reflection_csv.read_bytes())
        plain = dispatch(["fit-linear", "--input", str(reflection_csv)])
        assert dispatch(["fit-linear", "--input", str(marked)]) == plain
        assert plain.exit_code == 0

    @pytest.mark.parametrize("loss, stderr", [
        ("oops", "BadNumeric: data row 1, column 'path_loss_db': not a finite number: 'oops'\n"),
        ("90", "Csv: field larger than field limit (131072)\n"),
    ])
    def test_bad_number_is_reported_before_an_oversized_field(self, loss, stderr, tmp_path):
        path = tmp_path / "huge-field.csv"
        path.write_text(f"{PATH_LOSS_HEADER}\n142e9,tx1,rx1,2.0,NLOS,0,0,0,0,V,V,{loss}\n"
                        + '"' + "x" * 200_000 + '"\n', encoding="utf-8")
        assert dispatch(["validate", "--input", str(path)]) == (2, "", stderr)

    @pytest.mark.parametrize("loss, stderr", [
        ("oops", "BadNumeric: data row 3, column 'path_loss_db': not a finite number: 'oops'\n"),
        ("90", "UnicodeDecode: "),
    ])
    def test_bad_number_is_reported_before_a_bad_utf8_byte(self, loss, stderr, tmp_path):
        # long rows put the bad byte past the first 8 KiB decoded, so the
        # rows before it are read (and the bad number met) first
        rows = [f"142e9,{'t' * 300},rx1,2.0,NLOS,0,0,0,0,V,V,{loss if i == 3 else 90}"
                for i in range(1, 41)]
        path = tmp_path / "bad-byte.csv"
        path.write_bytes("\n".join([PATH_LOSS_HEADER, *rows, ""]).encode() + b"\xff\n")
        result = dispatch(["validate", "--input", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith(stderr)

    @staticmethod
    def _seven_rows(bad_number_row=None):
        return [f"142e9,tx1,rx{i},2.0,NLOS,0,0,0,0,V,V,{'oops' if i == bad_number_row else 90}"
                for i in range(1, 8)]

    def test_bad_utf8_byte_in_the_same_chunk_comes_after_an_earlier_bad_row(self, tmp_path):
        # both rows lie in the first 8 KiB the file is decoded in
        path = tmp_path / "bad-byte.csv"
        text = "\n".join([PATH_LOSS_HEADER, *self._seven_rows(bad_number_row=2), ""])
        path.write_bytes(text.encode().replace(b"rx5", b"rx\xff5"))
        assert dispatch(["validate", "--input", str(path)]) == (
            2, "", "BadNumeric: data row 2, column 'path_loss_db': not a finite number: 'oops'\n")

    @pytest.mark.parametrize("old, new, stderr", [
        (b"rx5,", b"rx\xff5,", "0xff in position 12: invalid byte in data row 5"),
        (b"rx5,2.0", b"rx5,2.\xff0", "0xff in position 16: invalid byte in data row 5"),
        (b"rx7,2.0,NLOS,0,0,0,0,V,V,90", b"rx7,2.0,NLOS,0,0,0,0,V,V,90,\xb0",  # no column
         "0xb0 in position 38: invalid byte in data row 7"),
        (b"path_loss_db", b"path_loss_db,\xb0", "0xb0 in position 110: invalid byte in the header"),
    ])
    def test_bad_utf8_byte_names_its_row(self, old, new, stderr, tmp_path):
        path = tmp_path / "bad-byte.csv"
        text = "\n".join([PATH_LOSS_HEADER, *self._seven_rows(), ""]).encode()
        path.write_bytes(text.replace(old, new))
        assert dispatch(["validate", "--input", str(path)]) == (
            2, "", f"UnicodeDecode: 'utf-8' codec can't decode byte {stderr}\n")


def _options():
    """(subcommand, option) for every option the command table declares."""
    return [(name, option) for name, command in COMMANDS.items()
            for option in command.parser_options()]


_FLOAT_OPTIONS = [(name, o.flag, o.nargs or 1) for name, o in _options() if o.type is float]


class TestFiniteFloatArguments:
    def test_every_typed_option_is_a_float_or_an_int(self):
        # a new converter would escape the finite-float rule the parser registers
        assert {a.type for _, a in _options()} == {None, float, int}
        assert len(_FLOAT_OPTIONS) == 33

    @pytest.mark.parametrize("name, option, nargs", _FLOAT_OPTIONS,
                             ids=[f"{n} {o}" for n, o, _ in _FLOAT_OPTIONS])
    def test_every_float_option_is_finite(self, name, option, nargs):
        for text, message in (("inf", "not a finite number"), ("nan", "not a finite number"),
                              ("1e400", "not a finite number"), ("abc", "invalid float value")):
            result = dispatch([name, option, *[text] * nargs])
            assert (result.exit_code, result.stdout) == (1, ""), (option, text)
            assert result.stderr.endswith(f"error: argument {option}: {message}: {text!r}\n")

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


class TestNonFiniteResults:
    @pytest.mark.parametrize("argv", [
        ["fspl", "--freq", "1e308", "--distance-m", "1e308"],
        ["ci-eval", "--freq", "1e9", "--ple", "1e308", "--distance-m", "1e300"],
        ["depol-margin", "--vh-db", "1e308", "--hv-db", "1e308", "--xpd-db", "0"],
    ])
    def test_overflow_is_a_domain_error(self, argv):
        result = dispatch(argv)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "NonFiniteResult: a result is not a finite number: inf\n"

    @pytest.mark.parametrize("argv", [
        ["fspl", "--freq", "1e-200", "--distance-m", "1e-200"],
        ["ci-eval", "--freq", "5e-324", "--ple", "2", "--distance-m", "10"],
        ["partition", "--tx-power-dbm", "0", "--rx-power-dbm", "-50",
         "--distance-m", "5e-324", "--freq", "5e-324"],
    ])
    def test_underflow_to_zero_is_a_domain_error(self, argv):
        result = dispatch(argv)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == ("InvariantViolation: 4*pi*d*f/c underflows to 0, "
                                 "so the loss in dB is unbounded\n")

    def test_overflowing_fit_residual_is_a_domain_error(self, tmp_path):
        path = tmp_path / "huge-loss.csv"
        path.write_text(f"{PATH_LOSS_HEADER}\n142e9,tx1,rx1,2.0,NLOS,0,0,0,0,V,V,1e200\n"
                        "142e9,tx1,rx2,4.0,NLOS,0,0,0,0,V,V,90\n", encoding="utf-8")
        result = dispatch(["fit-ci", "--input", str(path), "--freq", "142e9"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "NonFiniteResult: a result is not a finite number: inf\n"

    def test_backscatter_levels_a_float_range_apart_name_the_overflow(self, tmp_path):
        # each level is finite, but -1e308 - 1e308, the level relative to the peak, is not
        path = tmp_path / "pattern.csv"
        path.write_text("observation_angle_deg,relative_power_db\n-30,-1e308\n30,1e308\n",
                        encoding="utf-8")
        result = dispatch(["backscatter", "--input", str(path), "--incident-angle", "30"])
        assert result == (2, "", "NonFiniteResult: a result is not a finite number: -inf\n")

    def test_csv_cells_are_guarded_too(self):
        with pytest.raises(NonFiniteResultError):
            _csv_payload(("observation_angle_deg", "relative_power_db"), [(0.0, -math.inf)])

    def test_largest_finite_results_still_print(self):
        assert run_ok(["depol-margin", "--cross-mean-db", "1.7e308",
                       "--xpd-db", "0"]) == {"margin_db": 1.7e308}


class TestNegativeNumbers:
    @pytest.mark.parametrize("value", ["-1e3", "-1E3", "-1.5e+2", "-2.5E-1", "-.5e1",
                                       "-1000", "-1000.0", "-.5", "-7."])
    def test_every_float_form_is_a_value(self, value):
        payload = run_ok(["xpd", "--co-db", value, "--cross-db", "5"])
        assert payload["xpd_db"] == round(5 - float(value), 4)

    def test_every_subcommand_reads_the_exponent_form(self):
        # the fix sets argparse's private _negative_number_matcher on every parser
        assert build_parser()._negative_number_matcher.match("-1e3")
        for name in COMMANDS:
            assert build_command_parser(name)._negative_number_matcher.match("-1e3"), name
        result = dispatch(["fspl", "--freq", "28e9", "--distance-m", "-1e3"])
        assert result.stderr == "InvariantViolation: distance_m must be > 0\n"

    @pytest.mark.parametrize("argv", [["xpd", "--co-db", "-e3", "--cross-db", "5"],
                                      ["xpd", "--co-db", "-1e", "--cross-db", "5"],
                                      ["xpd", "--co-db", "5", "--cross-db", "5", "-1e3"]])
    def test_other_dashed_words_are_still_rejected(self, argv):
        assert dispatch(argv).exit_code == 1


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

    @pytest.mark.parametrize("row", ["73e9,89.99999999999999,0",
                                     "73e9,89.99999999999953,3.1822806396258537e-14"])
    def test_estimate_eps_on_a_flat_objective_names_the_fault(self, row, tmp_path):
        """Grazing samples fit every eps_r in [1, 30] equally well, to within
        rounding: no estimate, rather than a plausible grid point."""
        path = tmp_path / "grazing.csv"
        path.write_text(f"freq_hz,incident_angle_deg,reflection_loss_db\n{row}\n{row}\n",
                        encoding="utf-8")
        result = dispatch(["estimate-eps", "--input", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("FlatObjective: ")

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

    @pytest.mark.parametrize("angles", [("30", "30.000000001"), ("30", "30.0000009")])
    def test_fit_linear_on_coincident_angles_names_the_fault(self, angles, tmp_path):
        """Angles within 1e-6 deg of each other are one angle: no slope."""
        path = tmp_path / "coincident.csv"
        path.write_text("freq_hz,incident_angle_deg,reflection_loss_db\n"
                        f"73e9,{angles[0]},3\n73e9,{angles[1]},5\n", encoding="utf-8")
        result = dispatch(["fit-linear", "--input", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == ("DegenerateAngles: all samples share one incidence angle, "
                                 "to within 1e-06 deg\n")

    @pytest.mark.parametrize("command", ["fit-linear", "estimate-eps"])
    def test_reflection_fits_refuse_mixed_frequencies(self, command, tmp_path):
        """Rows at 28 and 142 GHz are two bands, not one fit; --freq picks one."""
        path = tmp_path / "mixed.csv"
        path.write_text("freq_hz,incident_angle_deg,reflection_loss_db\n"
                        "28e9,10,12.98\n28e9,30,4.22\n142e9,60,3.54\n142e9,80,0.36\n",
                        encoding="utf-8")
        result = dispatch([command, "--input", str(path)])
        assert result == CommandResult(
            2, "", "MixedFrequencies: samples span more than one frequency\n")
        assert run_ok([command, "--input", str(path), "--freq", "142e9"])["samples_used"] == 2


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

    def test_backscatter_tied_peak_reports_the_first_row(self, tmp_path):
        path = tmp_path / "pattern.csv"
        path.write_text("observation_angle_deg,relative_power_db\n"
                        "-30,-40\n40,-2\n20,-2\n30,-5\n", encoding="utf-8")
        summary = run_ok(["backscatter", "--input", str(path), "--incident-angle", "30"])
        assert summary == {"peak_angle": 40.0, "backscatter_margin_db": 38.0,
                           "smooth": True}

    def test_backscatter_on_a_header_only_pattern_names_the_fault(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("observation_angle_deg,relative_power_db\n", encoding="utf-8")
        result = dispatch(["backscatter", "--input", str(path), "--incident-angle", "30"])
        assert result == (2, "", "OneSidedPattern: pattern is empty\n")

    def test_removed_distance_options_are_usage_errors(self):
        for option in ("--tx-distance", "--rx-distance"):
            result = dispatch(["scatter-pattern", "--eps", "6.4", "--incident-angle", "30",
                               option, "1.5"])
            assert (result.exit_code, result.stdout) == (1, "")
            assert f"unrecognized arguments: {option} 1.5" in result.stderr

    @pytest.mark.parametrize("extra, message", [
        (["--diffuse-sr", "-1"], "diffuse_solid_angle_sr must be >= 0"),
        (["--hpbw", "0", "--spread-deg", "0"], "antenna_hpbw_deg must lie in (0, 180)"),
        (["--step", "0"], "sweep step must be > 0"),
        (["--hpbw", "-5"], "antenna_hpbw_deg must lie in (0, 180)"),
    ])
    def test_out_of_range_argument_is_invariant_violation(self, extra, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
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

    @pytest.mark.parametrize("angle", ["80.5", "85", "89.99"])
    def test_off_arc_incidence_names_the_incidence_angle(self, angle):
        result = dispatch(["scatter-pattern", "--eps", "6.4", "--incident-angle", angle])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == ("MissingSpecularAngle: sweep does not include the specular "
                                 f"angle {float(angle)} deg\n")

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

    @pytest.mark.parametrize("distance, freq, message", [
        ("0", "142e9", "distance_m must be > 0"),
        ("-3", "142e9", "distance_m must be > 0"),
        ("3", "0", "freq_hz must be > 0"),
        ("3", "-1e9", "freq_hz must be > 0"),
    ])
    def test_partition_single_fault_messages(self, distance, freq, message):
        result = dispatch(["partition", "--tx-power-dbm", "0", "--rx-power-dbm", "-80",
                           "--distance-m", distance, "--freq", freq])
        assert result == (2, "", f"InvariantViolation: {message}\n")

    def test_partition_and_fspl_name_the_same_fault_first(self):
        partition = dispatch(["partition", "--tx-power-dbm", "0", "--rx-power-dbm", "-80",
                              "--distance-m", "0", "--freq", "0"])
        fspl = dispatch(["fspl", "--freq", "0", "--distance-m", "0"])
        assert partition == fspl == (2, "", "InvariantViolation: freq_hz must be > 0\n")

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

    def test_depol_margin_without_cross_pol_input_is_a_usage_error(self):
        result = dispatch(["depol-margin", "--xpd-db", "3"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr.startswith("usage: mmwprop depol-margin ")
        assert ("mmwprop depol-margin: error: provide --cross-mean-db or both --vh-db "
                "and --hv-db\n") in result.stderr

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

    def test_fit_ci_on_losses_below_the_anchor_names_the_fault(self, tmp_path):
        # 60 and 65 dB at 5 and 10 m lie below FSPL(73 GHz, 1 m) = 69.71 dB
        path = tmp_path / "below-anchor.csv"
        path.write_text(f"{PATH_LOSS_HEADER}\n73e9,tx1,rx1,5,LOS,0,0,0,0,V,V,60\n"
                        "73e9,tx1,rx2,10,LOS,0,0,0,0,V,V,65\n", encoding="utf-8")
        result = dispatch(["fit-ci", "--input", str(path), "--freq", "73e9"])
        assert result == (2, "", "NonPositiveExponent: fitted path-loss exponent -0.7728 "
                          "is not > 0: the losses lie at or below the 69.71 dB free-space "
                          "loss at 1 m\n")

    def test_fit_ci_on_distances_that_barely_leave_the_anchor_names_the_fault(self, tmp_path):
        # least squares would print ple 2960570587.3878: the data do not determine it
        path = tmp_path / "near-anchor.csv"
        path.write_text(f"{PATH_LOSS_HEADER}\n73e9,tx1,rx1,1.0,LOS,0,0,0,0,V,V,70\n"
                        "73e9,tx1,rx2,1.0000000001,LOS,0,0,0,0,V,V,71\n", encoding="utf-8")
        result = dispatch(["fit-ci", "--input", str(path), "--freq", "73e9"])
        assert result == (2, "", "UndeterminedExponent: the distances barely leave the 1 m "
                          "anchor: sum of (10 log10 d)^2 is 1.886e-19 dB^2, under 1, so 1 dB "
                          "of path-loss scatter moves the fitted exponent by more than 1\n")

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


class TestRecordsRenderAsTheirFields:
    """A handler returns the library's record, and its JSON keys are its fields, in order."""

    def test_estimate_eps(self, reflection_csv):
        payload = run_ok(["estimate-eps", "--input", str(reflection_csv)])
        assert list(payload) == list(PermittivityEstimate._fields)

    def test_partition(self):
        payload = run_ok(["partition", "--tx-power-dbm", "10", "--rx-power-dbm", "-60",
                          "--distance-m", "2", "--freq", "142e9"])
        assert list(payload) == list(PartitionLossResult._fields)

    def test_validate(self, path_loss_csv):
        payload = run_ok(["validate", "--input", str(path_loss_csv)])
        assert list(payload) == list(ValidationReport._fields)

    @pytest.mark.parametrize("table, record", [("II", ReflectionSample), ("V", CiFitRecord)])
    def test_paper_table_rows(self, table, record):
        rows = run_ok(["paper-tables", "--table", table])[table]
        assert rows and all(list(row) == list(record._fields) for row in rows)


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


# One argv per exit code.
_EXIT_ARGV = {
    0: ["fspl", "--freq", "28e9", "--distance-m", "1"],
    1: ["fspl", "--freq", "28e9"],
    2: ["validate", "--input", "no-such-file.csv"],
}


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The cyclic collector switched on or off for the test, restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("code", sorted(_EXIT_ARGV))
def test_dispatch_leaves_the_collector_as_it_found_it(code, collector):
    assert dispatch(_EXIT_ARGV[code]).exit_code == code
    assert gc.isenabled() is collector


@pytest.mark.parametrize("code", sorted(_EXIT_ARGV))
def test_main_pauses_the_collector_for_dispatch_only(code, collector, monkeypatch):
    during = []

    def spy(argv):
        during.append(gc.isenabled())
        return dispatch(argv)

    monkeypatch.setattr("mmwprop.cli.dispatch", spy)
    assert main(_EXIT_ARGV[code]) == code
    assert during == [False]
    assert gc.isenabled() is collector


def test_main_restores_the_collector_when_dispatch_raises(collector, monkeypatch):
    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr("mmwprop.cli.dispatch", boom)
    with pytest.raises(RuntimeError):
        main(["fspl"])
    assert gc.isenabled() is collector


@pytest.mark.parametrize("argv", [["-h"], ["fspl", "-h"], ["scatter-pattern", "--help"]])
def test_help_is_returned_and_printed_unchanged(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    completed = subprocess.run([sys.executable, "-m", "mmwprop", *argv],
                               capture_output=True, text=True)
    assert completed.returncode == 0
    assert completed.stdout.startswith("usage: mmwprop")
    assert dispatch(argv) == (0, completed.stdout, completed.stderr)


GOLDENS = pathlib.Path(__file__).parent / "goldens"

# golden file -> (argv, fixture whose file is the --input, or None)
_GOLDEN_RUNS = {
    "paper-tables.json": (["paper-tables"], None),
    "paper-tables-II.json": (["paper-tables", "--table", "II"], None),
    "paper-tables-V.json": (["paper-tables", "--table", "V"], None),
    "reduce-directional.json": (["reduce-directional"], "path_loss_csv"),
    "reduce-directional.csv": (["reduce-directional", "--format", "csv"], "path_loss_csv"),
    "estimate-eps.json": (["estimate-eps"], "reflection_csv"),
    "partition-positive.json": (["partition", "--tx-power-dbm", "0", "--rx-power-dbm", "-100",
                                 "--distance-m", "3", "--freq", "142e9"], None),
    "partition-negative.json": (["partition", "--tx-power-dbm", "0", "--rx-power-dbm", "-40",
                                 "--distance-m", "3", "--freq", "142e9"], None),
    "fresnel.json": (["fresnel", "--eps", "4.7", "--angle", "30"], None),
    "fit-linear.json": (["fit-linear"], "reflection_csv"),
    "backscatter.json": (["backscatter", "--incident-angle", "30"], "pattern_csv"),
    "xpd.json": (["xpd", "--co-db", "80", "--cross-db", "124.18"], None),
    "budget.json": (["budget", "--refl-db", "7.25", "--part-db", "8.46"], None),
    "fspl.json": (["fspl", "--freq", "73e9", "--distance-m", "4.5"], None),
    "ci-eval.json": (["ci-eval", "--freq", "142e9", "--ple", "1.99", "--sigma-db", "3.1",
                      "--distance-m", "10"], None),
    "validate.json": (["validate"], "path_loss_csv"),
    "scatter-pattern.json": (["scatter-pattern", "--eps", "6.4", "--incident-angle", "33",
                              "--hpbw", "8"], None),
    "scatter-pattern.csv": (["scatter-pattern", "--eps", "4.7", "--incident-angle", "42.5",
                             "--step", "5", "--format", "csv"], None),
    # also the input of the backscatter run
    "scatter-pattern-30.csv": (["scatter-pattern", "--eps", "6.4", "--incident-angle", "30",
                                "--hpbw", "8", "--format", "csv"], None),
    "depol-margin-mean.json": (["depol-margin", "--cross-mean-db", "25.70", "--xpd-db", "19.30"],
                               None),
    "depol-margin-pair.json": (["depol-margin", "--vh-db", "25.59", "--hv-db", "25.81",
                                "--xpd-db", "19.30"], None),
    # the fixture's LOS and NLOS rows lie on different lines, so each filter fits its own
    "fit-ci.json": (["fit-ci", "--freq", "142e9"], "path_loss_csv"),
    "fit-ci-LOS.json": (["fit-ci", "--freq", "142e9", "--env", "LOS"], "path_loss_csv"),
    "fit-ci-NLOS.json": (["fit-ci", "--freq", "142e9", "--env", "NLOS"], "path_loss_csv"),
    "fit-ci-NLOS_BEST.json": (["fit-ci", "--freq", "142e9", "--env", "NLOS_BEST"],
                              "path_loss_csv"),
    "help.txt": (["-h"], None),
    **{f"help-{name}.txt": ([name, "-h"], None) for name in COMMANDS},
}


@pytest.fixture
def pattern_csv():
    return GOLDENS / "scatter-pattern-30.csv"


def _golden_argv(name, request):
    argv, fixture = _GOLDEN_RUNS[name]
    return [*argv, "--input", str(request.getfixturevalue(fixture))] if fixture else argv


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
def test_output_matches_golden(name, request, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    assert dispatch(_golden_argv(name, request)) == (
        0, (GOLDENS / name).read_text(encoding="utf-8"), "")


# numpy is a test dependency only: with its import blocked, a new interpreter
# must still give every golden byte for byte.
_REPLAY_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
from mmwprop.cli import dispatch
print(json.dumps([dispatch(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_goldens_replay_without_numpy(request, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    names = sorted(_GOLDEN_RUNS)
    argvs = [_golden_argv(name, request) for name in names]
    completed = subprocess.run([sys.executable, "-c", _REPLAY_WITHOUT_NUMPY, json.dumps(argvs)],
                               capture_output=True, text=True, check=True)
    results = dict(zip(names, json.loads(completed.stdout)))
    assert results == {name: [0, (GOLDENS / name).read_text(encoding="utf-8"), ""]
                       for name in names}


# Without blocking numpy: the commands must not import it even where it is installed.
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


def test_scatter_pattern_loads_no_numpy_and_gives_golden_output():
    stdout, status = _run_fresh(["scatter-pattern", "--eps", "6.4", "--incident-angle",
                                 "30", "--hpbw", "8", "--format", "csv"])
    assert status == {"code": 0, "numpy": False}
    assert stdout == (GOLDENS / "scatter-pattern-30.csv").read_text(encoding="utf-8")


def test_backscatter_loads_no_numpy(pattern_csv):
    stdout, status = _run_fresh(["backscatter", "--input", str(pattern_csv),
                                 "--incident-angle", "30"])
    assert status == {"code": 0, "numpy": False}
    assert json.loads(stdout)["peak_angle"] == 30.0


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_section_names_the_table():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert [line.split()[1] for line in block.splitlines()] == list(COMMANDS)
    assert all(line.startswith("mmwprop ") for line in block.splitlines())
    sentence = re.search(r"`--format json\|csv` applies to([^.]*)\.", text).group(1)
    assert re.findall(r"`([a-z-]+)`", sentence) == [
        name for name, command in COMMANDS.items() if command.formats]


def test_saved_path_loss_csv_matches_golden(path_loss_csv, tmp_path):
    out = tmp_path / "saved.csv"
    save_path_loss_csv(load_path_loss_csv(path_loss_csv), out)
    assert out.read_bytes() == (GOLDENS / "save-path-loss.csv").read_bytes()


# Each row twice (duplicate keys), and per link three equal losses that the
# azimuth has to break.
_HASH_SEED_ROWS = "".join(
    f"142e9,tx{t},rx{r},{2.0 + r},{env},{az},0,{-az},0,{pol},{pol},{90.0 + t}\n"
    for t in range(4) for r in range(3) for env in ("LOS", "NLOS")
    for az in (30.0, 10.0, 20.0) for pol in ("V", "H"))


@pytest.mark.parametrize("argv", [["validate"], ["reduce-directional", "--format", "json"],
                                  ["reduce-directional", "--format", "csv"]])
def test_output_does_not_depend_on_the_hash_seed(argv, tmp_path):
    path = tmp_path / "ties.csv"
    path.write_text(f"{PATH_LOSS_HEADER}\n{_HASH_SEED_ROWS}{_HASH_SEED_ROWS}", encoding="utf-8")
    outputs = set()
    for seed in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, "-m", "mmwprop", argv[0], "--input", str(path), *argv[1:]],
            env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True, check=True)
        outputs.add(completed.stdout)
    assert len(outputs) == 1
