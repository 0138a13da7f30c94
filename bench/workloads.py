"""The workloads as fixed pools of operations, each with its check.

A pool is one pass of a workload: the same kinds of operation in the same
numbers for every seed, so runs with different seeds measure the same mix.
The seed chooses the parameters and the generated data. Every check
compares the program's output with an answer computed in ``inputs`` or with
a published value, never with mmwprop itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import inputs

# CSV rows per path-loss file: paper-sized, and the ROADMAP's batch size.
SMALL_ROWS = 720
BATCH_ROWS = 100_000

# Tolerances on planted permittivity: 4 near-measured-angle samples with
# 0.01 dB noise, or 1 000 samples spread over 5..85 deg.
EPS_TOL_SMALL = 0.05
EPS_TOL_LARGE = 0.01
# Output is rounded to 4 decimals by the CLI contract.
ROUNDED = 1.5e-4


class Observations:
    """Values the checks record for the trace report (estimate errors)."""

    def __init__(self):
        self.eps_errors: list[float] = []


@dataclass
class CliOp:
    kind: str
    argv: tuple
    check: Callable[[int, str, str], str | None]   # (exit, stdout, stderr) -> error
    rows: int = 0                                   # CSV data rows the op reads


@dataclass
class LibOp:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    rows: int        # samples or observation angles handed to the call


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity, which are not valid JSON."""
    return json.loads(text, parse_constant=_reject_constant)


def _off(got, want, tol=ROUNDED) -> bool:
    return not (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= tol)


def _mismatch(name, got, want) -> str:
    return f"{name}: got {got!r}, expected {want!r}"


def _compare(payload: dict, expected: dict, tol=ROUNDED) -> str | None:
    for key, want in expected.items():
        got = payload.get(key)
        if isinstance(want, float) and _off(got, want, tol):
            return _mismatch(key, got, want)
        if not isinstance(want, float) and got != want:
            return _mismatch(key, got, want)
    return None


def json_op(kind, argv, verify, rows=0) -> CliOp:
    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}: {err.strip()[:300]}"
        try:
            payload = strict_json(out)
        except ValueError as exc:
            return f"invalid JSON: {exc}"
        return verify(payload)
    return CliOp(kind, tuple(argv), check, rows)


def error_op(kind, argv, code, prefix) -> CliOp:
    """An op whose contract is an exit code and an error name on stderr.

    It counts no input rows: a failing op ingests nothing.
    """
    def check(got_code, out, err):
        if got_code != code or out or prefix not in err or "Traceback" in err:
            return (f"expected exit {code} with {prefix!r} on stderr, "
                    f"got exit {got_code}: {err.strip()[:300]}")
        return None
    return CliOp(kind, tuple(argv), check)


def _pattern_peak_error(points, theta) -> str | None:
    """Each pattern is finite, at most 0 dB, and peaks (0 dB) at the specular angle."""
    if any(not math.isfinite(p) or p > 0.0 for _, p in points):
        return "pattern value above 0 dB or not finite"
    peak_angle, peak = max(points, key=lambda ap: ap[1])
    if abs(peak_angle - theta) > 1e-6 or peak != 0.0:
        return f"pattern peaks at {peak_angle} deg ({peak} dB), not at specular {theta} deg"
    return None


def _smooth_rule(points, theta) -> tuple[float, bool]:
    peak = max(p for _, p in points)
    margin = peak - max(p for a, p in points if a < 0.0)
    window = [p for a, p in points if abs(a - theta) <= 10.0 + 1e-6]
    return margin, margin > 20.0 and all(peak - p <= 10.0 for p in window)


# ---------------------------------------------------------------------------
# Verifiers for CLI payloads
# ---------------------------------------------------------------------------

def _verify_ci_fit(info: inputs.PathLossFile, env: str | None):
    ref = info.fits[env or "ALL"]

    def verify(payload):
        error = _compare(payload, {"freq_hz": info.freq_hz, "env": env or "ALL",
                                   "ple": ref.ple, "sigma_db": ref.sigma_db,
                                   "n_samples": ref.n})
        if error or env not in ("LOS", "NLOS"):
            return error
        ple, sigma = info.planted[env]
        if abs(payload["ple"] - ple) > ref.ple_tol + ROUNDED:
            return f"PLE {payload['ple']} not within {ref.ple_tol:.4f} of planted {ple}"
        if abs(payload["sigma_db"] - sigma) > ref.sigma_tol + ROUNDED:
            return (f"sigma {payload['sigma_db']} not within {ref.sigma_tol:.4f} "
                    f"of planted {sigma:.4f}")
        return None
    return verify


def _row_error(got: list, want: list) -> str | None:
    if len(got) != len(want):
        return _mismatch("row", got, want)
    for g, w in zip(got, want):
        numeric = w.replace(".", "", 1).replace("-", "", 1).isdigit()
        if (numeric and _off(float(g), float(w))) or (not numeric and g != w):
            return _mismatch("row", got, want)
    return None


def _verify_reduce_json(info: inputs.PathLossFile):
    def verify(payload):
        error = _compare(payload, {"los_count": info.los_count,
                                   "nlos_count": info.nlos_count,
                                   "nlos_best_count": len(info.nlos_best)})
        if error:
            return error
        best = payload.get("nlos_best")
        if not isinstance(best, list) or len(best) != len(info.nlos_best):
            return "nlos_best list does not match nlos_best_count"
        for entry, want in zip(best, info.nlos_best):
            got = [str(entry.get(c)) if isinstance(entry.get(c), str) else
                   f"{entry.get(c)!r}" for c in inputs.PATH_LOSS_HEADER]
            error = _row_error(got, want)
            if error:
                return error
        return None
    return verify


def _reduce_csv_check(info: inputs.PathLossFile):
    def check(code, out, err):
        if code != 0 or err:
            return f"exit {code}: {err.strip()[:300]}"
        lines = out.split("\n")
        if lines[0] != ",".join(inputs.PATH_LOSS_HEADER) or lines[-1] != "":
            return "CSV header or final newline differs from the path-loss schema"
        if len(lines) - 2 != len(info.nlos_best):
            return _mismatch("CSV rows", len(lines) - 2, len(info.nlos_best))
        for line, want in zip(lines[1:-1], info.nlos_best):
            error = _row_error(line.split(","), want)
            if error:
                return error
        return None
    return check


def _verify_validate(info: inputs.PathLossFile):
    def verify(payload):
        return _compare(payload, {"los_count": info.los_count,
                                  "nlos_count": info.nlos_count,
                                  "distance_min_m": info.distance_min,
                                  "distance_max_m": info.distance_max,
                                  "duplicates": []})
    return verify


def _verify_table_ii(rows) -> str | None:
    if len(rows) != 12:
        return _mismatch("Table II rows", len(rows), 12)
    at_142 = [(r["incident_angle_deg"], r["reflection_loss_db"])
              for r in rows if r["freq_hz"] == 142e9]
    if at_142 != list(inputs.PAPER_TABLE_II_142):
        return _mismatch("Table II at 142 GHz", at_142, inputs.PAPER_TABLE_II_142)
    spread = at_142[0][1] - at_142[-1][1]
    if abs(spread - 9.45) > 1e-9:
        return f"142 GHz reflection spread {spread:.2f} dB, paper gives 9.45 dB"
    return None


def _verify_table_v(rows) -> str | None:
    got = [(r["freq_hz"], r["environment"], r["ple"], r["sigma_db"]) for r in rows]
    if got != list(inputs.PAPER_TABLE_V):
        return _mismatch("Table V", got, inputs.PAPER_TABLE_V)
    return None


def _verify_tables(table: str | None):
    def verify(payload):
        if table == "II":
            return (_mismatch("tables", sorted(payload), ["II"]) if list(payload) != ["II"]
                    else _verify_table_ii(payload["II"]))
        if table == "V":
            return (_mismatch("tables", sorted(payload), ["V"]) if list(payload) != ["V"]
                    else _verify_table_v(payload["V"]))
        sizes = {k: len(v) for k, v in payload.items()}
        if sizes != {"I": 3, "II": 12, "III": 12, "IV": 12, "V": 9}:
            return _mismatch("table sizes", sizes, "I:3 II:12 III:12 IV:12 V:9")
        return _verify_table_ii(payload["II"]) or _verify_table_v(payload["V"])
    return verify


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def _freq_arg(freq_hz: float) -> str:
    return f"{freq_hz / 1e9:g}e9"


def _fit_ci_op(info, env) -> CliOp:
    argv = ["fit-ci", "--input", info.path, "--freq", _freq_arg(info.freq_hz)]
    if env:
        argv += ["--env", env]
    return json_op("fit-ci", argv, _verify_ci_fit(info, env), info.rows)


def _path_loss_ops(kinds_and_files) -> list[CliOp]:
    ops = []
    for kind, info in kinds_and_files:
        if kind == "validate":
            ops.append(json_op("validate", ["validate", "--input", info.path],
                               _verify_validate(info), info.rows))
        elif kind.startswith("fit-ci"):
            ops.append(_fit_ci_op(info, kind.partition(":")[2] or None))
        elif kind == "reduce-json":
            ops.append(json_op("reduce-directional",
                               ["reduce-directional", "--input", info.path,
                                "--format", "json"],
                               _verify_reduce_json(info), info.rows))
        else:
            ops.append(CliOp("reduce-directional",
                             ("reduce-directional", "--input", info.path, "--format", "csv"),
                             _reduce_csv_check(info), info.rows))
    return ops


PATHLOSS_KINDS = ("validate", "fit-ci", "fit-ci:LOS", "fit-ci:NLOS", "fit-ci:NLOS_BEST",
                  "reduce-json", "reduce-csv")


def batch_inputs(seed: int, workdir: str) -> list[inputs.PathLossFile]:
    return [inputs.write_path_loss_csv(os.path.join(workdir, f"sweep_{f / 1e9:g}GHz.csv"),
                                       inputs.rng_for(seed, f"batch-{f:g}"), f, BATCH_ROWS)
            for f in inputs.BANDS_HZ]


def batch_pool(seed: int, files: list[inputs.PathLossFile]) -> list[CliOp]:
    """Seven 100k-row CLI ops, one of each kind, every band used at least twice."""
    rng = inputs.rng_for(seed, "batch-pool")
    bands = list(files) * 2 + [rng.choice(files)]
    rng.shuffle(bands)
    return _path_loss_ops(zip(PATHLOSS_KINDS, bands))


@dataclass
class PaperInputs:
    reflection: dict          # freq -> ReflectionSet (4 samples)
    patterns: list            # two Pattern
    path_loss: dict           # freq -> PathLossFile
    bad: inputs.PathLossFile  # path-loss file with one unparsable cell
    files: dict               # name -> path


def paper_inputs(seed: int, workdir: str) -> PaperInputs:
    files = {}
    reflection = {}
    for f in inputs.BANDS_HZ:
        reflection[f] = inputs.reflection_set(inputs.rng_for(seed, f"refl-{f:g}"), f, 4)
        files[f"refl-{f:g}"] = os.path.join(workdir, f"reflection_{f / 1e9:g}GHz.csv")
        inputs.write_reflection_csv(files[f"refl-{f:g}"], reflection[f])
    single = inputs.ReflectionSet(142e9, reflection[142e9].eps_r, reflection[142e9].rows[:1])
    files["refl-one"] = os.path.join(workdir, "reflection_one.csv")
    inputs.write_reflection_csv(files["refl-one"], single)
    patterns = []
    for k in range(2):
        patterns.append(inputs.pattern(inputs.rng_for(seed, f"pattern-{k}")))
        files[f"pattern-{k}"] = os.path.join(workdir, f"pattern_{k}.csv")
        inputs.write_pattern_csv(files[f"pattern-{k}"], patterns[k])
    path_loss = {
        f: inputs.write_path_loss_csv(os.path.join(workdir, f"links_{f / 1e9:g}GHz.csv"),
                                      inputs.rng_for(seed, f"links-{f:g}"), f, SMALL_ROWS)
        for f in inputs.BANDS_HZ}
    bad = inputs.write_path_loss_csv(os.path.join(workdir, "links_bad.csv"),
                                     inputs.rng_for(seed, "links-bad"), 142e9, SMALL_ROWS,
                                     bad_cell=True)
    files["missing"] = os.path.join(workdir, "no_such_sweep.csv")
    return PaperInputs(reflection, patterns, path_loss, bad, files)


def paper_pool(seed: int, data: PaperInputs, obs: Observations) -> list[CliOp]:
    """Forty CLI ops: all 14 subcommands on paper-sized inputs, four of them errors."""
    rng = inputs.rng_for(seed, "cli-pool")
    ops: list[CliOp] = []

    def num(lo, hi, digits=2):
        return round(rng.uniform(lo, hi), digits)

    # fresnel: the 7.25 dB anchor at eps_r = 6.4, and a seeded geometry.
    for eps, angle in ((6.4, 0.0), (num(2.0, 10.0), num(0.0, 85.0))):
        gamma = inputs.gamma_perp(angle, eps)
        expected = {"incident_angle_deg": angle, "eps_r": eps, "gamma_perp": gamma,
                    "magnitude": abs(gamma), "loss_db": inputs.reflection_loss_db(angle, eps)}

        def verify(payload, expected=expected, anchor=eps == 6.4 and angle == 0.0):
            if anchor and _off(payload.get("loss_db"), 7.25, 0.05):
                return f"normal-incidence loss {payload.get('loss_db')} dB, paper gives 7.25"
            return _compare(payload, expected)
        ops.append(json_op("fresnel", ["fresnel", "--eps", str(eps), "--angle", str(angle)],
                           verify))

    # estimate-eps and fit-linear on 4-sample reflection CSVs.
    for f, use_freq in ((28e9, False), (142e9, True)):
        refl = data.reflection[f]
        argv = ["estimate-eps", "--input", data.files[f"refl-{f:g}"]]
        if use_freq:
            argv += ["--freq", _freq_arg(f)]

        def verify(payload, refl=refl):
            eps = payload.get("eps_r")
            if _off(eps, refl.eps_r, EPS_TOL_SMALL):
                return f"eps_r {eps} not within {EPS_TOL_SMALL} of planted {refl.eps_r}"
            obs.eps_errors.append(abs(eps - refl.eps_r))
            if payload.get("samples_used") != 4 or _off(payload.get("mse"), 0.0, 1e-3):
                return f"unexpected samples_used/mse in {payload}"
            return None
        ops.append(json_op("estimate-eps", argv, verify, 4))
    for f in (73e9, 142e9):
        slope, intercept, rmse = inputs.linear_fit(data.reflection[f])
        ops.append(json_op("fit-linear", ["fit-linear", "--input", data.files[f"refl-{f:g}"]],
                           lambda p, e={"slope": slope, "intercept": intercept, "rmse": rmse,
                                        "samples_used": 4}: _compare(p, e), 4))

    # scatter-pattern: two JSON and two CSV 17-point sweeps.
    for fmt in ("json", "json", "csv", "csv"):
        theta = float(rng.choice(range(10, 71, 10)))
        argv = ["scatter-pattern", "--eps", str(num(3.0, 8.0)), "--incident-angle", str(theta),
                "--hpbw", str(rng.choice((10.0, 7.0, 8.0))),
                "--s-coeff", str(num(0.2, 0.6)), "--lambda-mix", str(num(0.6, 1.0)),
                "--alpha-r", str(rng.randint(1, 4)), "--alpha-i", str(rng.randint(1, 4)),
                "--format", fmt]
        if fmt == "json":
            def verify(payload, theta=theta):
                points = [(p["observation_angle_deg"], p["relative_power_db"])
                          for p in payload.get("pattern", [])]
                if len(points) != 17:
                    return _mismatch("pattern points", len(points), 17)
                margin, smooth = _smooth_rule(points, theta)
                return (_pattern_peak_error(points, theta)
                        or _compare(payload, {"incident_angle_deg": theta, "peak_angle": theta,
                                              "backscatter_margin_db": margin,
                                              "smooth": smooth}))
            ops.append(json_op("scatter-pattern", argv, verify))
        else:
            def check(code, out, err, theta=theta):
                if code != 0 or err:
                    return f"exit {code}: {err.strip()[:300]}"
                lines = out.split("\n")
                if lines[0] != ",".join(inputs.PATTERN_HEADER) or len(lines) != 19:
                    return "pattern CSV header or row count differs"
                points = [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]
                return _pattern_peak_error(points, theta)
            ops.append(CliOp("scatter-pattern", tuple(argv), check))

    # backscatter on the generated pattern CSVs.
    for k, pat in enumerate(data.patterns):
        ops.append(json_op(
            "backscatter",
            ["backscatter", "--input", data.files[f"pattern-{k}"],
             "--incident-angle", str(pat.incident_angle_deg)],
            lambda p, pat=pat: _compare(p, {"peak_angle": pat.incident_angle_deg,
                                            "backscatter_margin_db": pat.margin_db,
                                            "smooth": pat.smooth}),
            len(pat.points)))

    # partition, xpd, depol-margin (with the paper's 6.40 dB anchor), budget.
    for gains in (None, (num(10.0, 27.0, 1), num(10.0, 27.0, 1))):
        f, d = rng.choice(inputs.BANDS_HZ), num(1.0, 10.0)
        tx, rx = num(-10.0, 10.0), num(-110.0, -60.0)
        argv = ["partition", "--tx-power-dbm", str(tx), "--rx-power-dbm", str(rx),
                "--distance-m", str(d), "--freq", _freq_arg(f)]
        if gains:
            argv += ["--gains-dbi", str(gains[0]), str(gains[1])]
        loss = tx - (rx - sum(gains or ())) - inputs.fspl_db(f, d)
        ops.append(json_op("partition", argv, lambda p, e={"loss_db": loss,
                                                           "negative_loss": loss < 0.0}:
                           _compare(p, e)))
    for _ in range(2):
        co, cross = num(60.0, 110.0), num(70.0, 140.0)
        ops.append(json_op("xpd", ["xpd", "--co-db", str(co), "--cross-db", str(cross)],
                           lambda p, e={"xpd_db": cross - co}: _compare(p, e)))
    ops.append(json_op("depol-margin",
                       ["depol-margin", "--vh-db", "25.59", "--hv-db", "25.81",
                        "--xpd-db", "19.30"],
                       lambda p: _compare(p, {"margin_db": 6.40}, 0.01)))
    mean, xpd = num(15.0, 50.0), num(15.0, 45.0)
    ops.append(json_op("depol-margin",
                       ["depol-margin", "--cross-mean-db", str(mean), "--xpd-db", str(xpd)],
                       lambda p, e={"margin_db": mean - xpd}: _compare(p, e)))
    for refl_db, part_db, tol in ((7.25, 8.46, 0.005), (num(3.1, 15.0), num(3.1, 15.0), None)):
        r, t = 10.0 ** (-refl_db / 10.0), 10.0 ** (-part_db / 10.0)
        want = ((0.188, 0.143, 0.669) if tol else (r, t, 1.0 - r - t))

        def verify(payload, want=want, tol=tol or ROUNDED):
            budget = payload.get("budget", {})
            return _compare(budget, dict(zip(("reflected", "transmitted", "absorbed"), want)),
                            tol)
        ops.append(json_op("budget", ["budget", "--refl-db", str(refl_db),
                                      "--part-db", str(part_db)], verify))

    # fspl and ci-eval.
    for _ in range(2):
        f, d = rng.choice(inputs.BANDS_HZ), num(1.0, 100.0)
        ops.append(json_op("fspl", ["fspl", "--freq", _freq_arg(f), "--distance-m", str(d)],
                           lambda p, e={"fspl_db": inputs.fspl_db(f, d)}: _compare(p, e)))
    for _ in range(2):
        f, d, ple = rng.choice(inputs.BANDS_HZ), num(1.0, 100.0), num(1.5, 5.5)
        want = inputs.fspl_db(f, 1.0) + 10.0 * ple * math.log10(d)
        ops.append(json_op("ci-eval", ["ci-eval", "--freq", _freq_arg(f), "--ple", str(ple),
                                       "--distance-m", str(d)],
                           lambda p, e={"path_loss_db": want}: _compare(p, e)))

    # fit-ci, reduce-directional and validate on 720-row path-loss CSVs.
    pl = data.path_loss
    ops += _path_loss_ops([
        ("fit-ci", pl[28e9]), ("fit-ci:LOS", pl[73e9]), ("fit-ci:NLOS", pl[142e9]),
        ("fit-ci:NLOS_BEST", pl[28e9]), ("reduce-json", pl[73e9]), ("reduce-csv", pl[142e9]),
        ("validate", pl[28e9]), ("validate", pl[73e9]), ("validate", pl[142e9])])

    # paper-tables: everything, Table II and Table V.
    for table in (None, "II", "V"):
        argv = ["paper-tables"] + (["--table", table] if table else [])
        ops.append(json_op("paper-tables", argv, _verify_tables(table)))

    # One op in ten is an error path with a fixed exit code and error name.
    usage = rng.choice((["fspl", "--freq", "28e9"], ["warp-drive"],
                        ["fresnel", "--eps", "abc", "--angle", "0"],
                        ["fit-ci", "--input", data.files["missing"], "--freq", "28e9",
                         "--env", "MOON"]))
    ops.append(error_op("usage-error", usage, 1, ": error: "))
    ops.append(error_op("FileNotFound", [rng.choice(("validate", "reduce-directional")),
                                         "--input", data.files["missing"]],
                        2, "FileNotFound: "))
    ops.append(error_op("TooFewSamples",
                        [rng.choice(("estimate-eps", "fit-linear")),
                         "--input", data.files["refl-one"]], 2, "TooFewSamples: "))
    ops.append(error_op("BadNumeric", ["validate", "--input", data.bad.path], 2,
                        f"BadNumeric: data row {data.bad.bad_row}, "
                        f"column {data.bad.bad_column!r}:"))
    return ops


# ---------------------------------------------------------------------------
# model_fit: in-process library calls
# ---------------------------------------------------------------------------

def model_fit_pool(seed: int, mm, obs: Observations) -> list[LibOp]:
    """Twenty calls: fifteen paper-sized, five large (1 000 samples, 161 angles).

    Sorted by time the calls fall in groups: three sub-millisecond calls,
    nine 4-sample MMSE fits, seven pattern predictions, one 1 000-sample MMSE
    fit. The counts put op_ms.p50 in the upper part of the MMSE group and
    op_ms.p90 in the upper part of the pattern group, away from the edges
    between groups, where a percentile would jump between them.

    ``mm`` is the imported mmwprop package. Calls look functions up on their
    modules at call time, so a tracer that replaces them sees every call.
    """
    rng = inputs.rng_for(seed, "model-pool")
    refl, scat = mm.reflection, mm.scattering
    ops: list[LibOp] = []

    def mmse_op(freq, count, k=0):
        data = inputs.reflection_set(inputs.rng_for(seed, f"mmse-{count}-{freq:g}-{k}"),
                                     freq, count)
        samples = [mm.datasets.ReflectionSample(*row) for row in data.rows]
        tol = EPS_TOL_SMALL if count == 4 else EPS_TOL_LARGE

        def check(estimate):
            if abs(estimate.eps_r - data.eps_r) > tol:
                return f"eps_r {estimate.eps_r} not within {tol} of planted {data.eps_r}"
            obs.eps_errors.append(abs(estimate.eps_r - data.eps_r))
            if estimate.samples_used != count or not 0.0 <= estimate.mse < 1e-3:
                return f"unexpected samples_used/mse in {estimate}"
            return None
        return LibOp(f"mmse-{count}", lambda: refl.estimate_permittivity_mmse(samples),
                     check, count)

    def pattern_op(angles, alpha_r, alpha_i):
        # The lobe exponents set the cost of a call, so they are fixed per op;
        # the seed picks the geometry and the other parameters.
        theta = float(rng.choice(range(10, 71, 10)))
        params = scat.DsParameters(s_coeff=round(rng.uniform(0.2, 0.6), 2),
                                   lambda_mix=round(rng.uniform(0.6, 1.0), 2),
                                   alpha_r=alpha_r, alpha_i=alpha_i)
        eps, hpbw = round(rng.uniform(3.0, 8.0), 2), rng.choice((10.0, 7.0, 8.0))
        geometries = scat.sweep_geometries(theta, angles)

        def check(points):
            got = [(p.observation_angle_deg, p.relative_power_db) for p in points]
            if [a for a, _ in got] != list(angles):
                return "pattern angles differ from the sweep"
            return _pattern_peak_error(got, theta)
        return LibOp(f"pattern-{len(angles)}",
                     lambda: scat.predict_pattern(geometries, eps, params, hpbw),
                     check, len(angles))

    for k in range(3):
        for f in inputs.BANDS_HZ:
            ops.append(mmse_op(f, 4, k))
    paper_sweep = tuple(float(a) for a in range(-80, 81, 10))
    for alphas in ((1, 1), (4, 4), (2, 3)):
        ops.append(pattern_op(paper_sweep, *alphas))

    linear = inputs.reflection_set(inputs.rng_for(seed, "linear"), 73e9, 4)
    linear_samples = [mm.datasets.ReflectionSample(*row) for row in linear.rows]
    want = inputs.linear_fit(linear)

    def check_linear(result):
        fit, rmse = result
        got = (fit.slope, fit.intercept, rmse)
        if any(abs(g - w) > 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want)):
            return _mismatch("linear fit", got, want)
        return None
    ops.append(LibOp("fit-linear", lambda: refl.fit_linear_reflection(linear_samples),
                     check_linear, 4))

    pat = inputs.pattern(inputs.rng_for(seed, "model-pattern"))
    points = [scat.ScatterPatternPoint(a, p) for a, p in pat.points]
    ops.append(LibOp("backscatter-margin",
                     lambda: scat.backscatter_margin(points, pat.incident_angle_deg),
                     lambda m: None if abs(m - pat.margin_db) <= 1e-9
                     else _mismatch("margin", m, pat.margin_db), len(points)))
    ops.append(LibOp("classify-smooth",
                     lambda: scat.classify_smooth(points, pat.incident_angle_deg),
                     lambda s: None if s is pat.smooth else _mismatch("smooth", s, pat.smooth),
                     len(points)))

    fine_sweep = tuple(float(a) for a in range(-80, 81))
    for alphas in ((40, 40), (20, 33), (4, 40), (27, 8)):
        ops.append(pattern_op(fine_sweep, *alphas))
    ops.append(mmse_op(rng.choice(inputs.BANDS_HZ), 1000))
    return ops
