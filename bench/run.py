#!/usr/bin/env python3
"""mmwprop benchmark: two closed-loop workloads with checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 40 --trace 0

Workloads:

* ``cli_mix``: back-to-back ``python -m mmwprop ...`` subprocesses. Forty
  ops run all 14 subcommands on paper-sized inputs, one in ten an error
  path; seven run ``validate``, ``fit-ci`` and ``reduce-directional`` on
  seeded 100 000-row path-loss CSVs at 28, 73 and 142 GHz.
* ``model_fit``: in-process library calls (MMSE permittivity, dual-lobe
  patterns, linear reflection fit, backscatter margin and smoothness).

One client runs one operation at a time; each waits for the one before it.
A run sets up ``SETUP_REPS`` times, then repeats seeded shuffles of the
workload's op pool (passes) and stops at the first pass boundary after
``--seconds``. ``--trace 1`` replays the same ops with timing spans around the
library's public functions and reports per-layer metrics instead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import inputs
import workloads
from spans import DATASET_ACCESSORS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
IMPORT_PROBES = 5
OP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms",
    "op_ms.p90": "ms", "rows_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "interp.ms": "ms", "import.ms": "ms", "import.numpy_ms": "ms", "import.modules": "count",
    "cli.parse_ms": "ms", "cli.self_ms": "ms", "cli.out_bytes": "bytes/op",
    "cli.errors": "count/op", "cli.calls": "count/op",
    "datasets.load_ms": "ms", "datasets.rows": "count/op", "datasets.load_rows_per_s": "1/s",
    "datasets.validate_ms": "ms", "datasets.lookup_ms": "ms", "datasets.failed": "count/op",
    "datasets.calls": "count/op",
    "pathloss.reduce_ms": "ms", "pathloss.fit_ms": "ms", "pathloss.calls": "count/op",
    "reflection.mmse_small_ms": "ms", "reflection.mmse_large_ms": "ms",
    "reflection.linear_ms": "ms", "reflection.eps_max_err": "eps_r",
    "reflection.calls": "count/op",
    "scattering.pattern_ms": "ms", "scattering.norm_ms": "ms", "scattering.norm_share": "ratio",
    "scattering.classify_ms": "ms", "scattering.calls": "count/op",
    "partition.ms": "ms", "partition.calls": "count/op",
    "trace.overhead_ratio": "ratio", "trace.unaccounted_ms": "ms",
}
# Sample counts and bases printed beside the numbers they qualify.
NOTES = {
    "wall_s": "one pass of the op pool, each op at its upper-quartile time",
    "op_ms.p50": "across the pool's ops, each at its upper-quartile time",
    "op_ms.p90": "across the pool's ops, each at its upper-quartile time",
    "ops_per_s": "ops of one pass / wall_s",
    "rows_per_s": "input rows of one pass / wall_s",
    "scattering.norm_share": "base: scattering.pattern_ms, summed over calls",
    "trace.overhead_ratio": "base: the same op untraced, in-process",
    "reflection.eps_max_err": "max |estimate - planted eps_r|",
}


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _median(values) -> float:
    """Median, or 0.0 where the layer did no work on this workload."""
    return statistics.median(values) if values else 0.0


def schedule(seed: int, size: int):
    """Endless seeded shuffles of range(size); each pass runs every op once."""
    rng = inputs.rng_for(seed, "schedule")
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


class Run:
    """State of one benchmark run: where it works, what it saw, what failed."""

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["PYTHONPATH"] = str(SRC)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.obs = workloads.Observations()
        self._first_output: dict = {}

    def fail(self, message: str) -> None:
        """A failure outside any op (set-up, probes): the run is not correct."""
        self.failures.append(message)

    def record(self, key, label: str, output, error: str | None) -> None:
        """Count one checked op; the same op must repeat its output exactly."""
        self.attempted += 1
        if error is None and self._first_output.setdefault(key, output) != output:
            error = "output differs from an earlier run of the same op"
        if error is not None:
            self.failed += 1
            self.fail(f"{label}: {error}")

    def child(self, argv, timeout=OP_TIMEOUT_S):
        """Run the program; return (seconds, exit code, stdout, stderr)."""
        start = perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return perf_counter() - start, -1, "", f"timed out after {timeout} s"
        elapsed = perf_counter() - start
        return (elapsed, proc.returncode, proc.stdout.decode("utf-8", "replace"),
                proc.stderr.decode("utf-8", "replace"))

    def workdir_digest(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(os.listdir(self.workdir)):
            digest.update(name.encode())
            digest.update(Path(self.workdir, name).read_bytes())
        return digest.hexdigest()

    def timed_loop(self, pool, run_op):
        """Closed loop over seeded passes, stopping at the first pass boundary
        after the time is up.

        Whole passes give every op of the pool the same number of samples.
        Returns per-op times in seconds, indexed like the pool.
        """
        times = [[] for _ in pool]
        done = 0
        start = perf_counter()
        for index in schedule(self.seed, len(pool)):
            if done % len(pool) == 0 and done and perf_counter() - start >= self.seconds:
                break
            times[index].append(run_op(index, pool[index]))
            done += 1
        self.loop_ops, self.loop_s = done, perf_counter() - start
        self.pool_size = len(pool)
        return times


def end_to_end(setup_times, times, rows, rss_kib) -> dict:
    """End-to-end metrics from set-up times and per-op times (indexed like the pool).

    Each op of the pool is taken at its upper-quartile time in the run, and
    every time metric derives from that one table: a pass costs their sum,
    and the percentiles run across the pool's ops. On a shared 2-vCPU host
    speed alternated between a fast and a usual, slower state, with a share
    of fast time that differed from run to run; the upper quartile picks the
    usual speed, where medians of raw times moved by up to a third.
    """
    per_op = [percentile(op_times, 75) for op_times in times]
    wall = sum(per_op)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": len(per_op) / wall,
        "op_ms.p50": percentile(per_op, 50) * 1e3,
        "op_ms.p90": percentile(per_op, 90) * 1e3,
        "rows_per_s": sum(rows) / wall,
        "peak_rss_mb": rss_kib / 1024.0,
    }


# ---------------------------------------------------------------------------
# cli_mix: CLI subprocesses
# ---------------------------------------------------------------------------

WARM_UP_ARGV = ("-m", "mmwprop", "paper-tables", "--table", "V")


def run_cli_workload(run: Run, make_pool, trace: bool) -> dict:
    setup_times, digests = [], []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        pool = make_pool()
        _, code, _, err = run.child(WARM_UP_ARGV)
        setup_times.append(perf_counter() - start)
        digests.append(run.workdir_digest())
        if code != 0:
            run.fail(f"warm-up exited {code}: {err.strip()[:300]}")
    if len(set(digests)) != 1:
        run.fail("the same seed generated different input files")
    if trace:
        return trace_cli_workload(run, pool)

    def run_op(index, op):
        elapsed, code, out, err = run.child(("-m", "mmwprop", *op.argv))
        run.record(index, f"{op.kind} {' '.join(op.argv)}", out, op.check(code, out, err))
        return elapsed

    times = run.timed_loop(pool, run_op)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return end_to_end(setup_times, times, [op.rows for op in pool], rss)


def _import_mmwprop():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mmwprop
    import mmwprop.cli
    return mmwprop


def import_probes(run: Run) -> dict:
    """Interpreter floor and package import, from fresh interpreters only."""
    floor, full, numpy_ms, modules = [], [], [], set()
    count_modules = ("import sys; n = len(sys.modules); import mmwprop.cli; "
                     "print(len(sys.modules) - n)")
    for _ in range(IMPORT_PROBES):
        floor.append(run.child(("-c", "pass"))[0])
        full.append(run.child(("-c", "import mmwprop.cli"))[0])
        _, code, out, err = run.child(("-X", "importtime", "-c", count_modules))
        if code != 0:
            run.fail(f"import probe exited {code}: {err.strip()[:300]}")
            continue
        modules.add(int(out))
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_ms.append(int(fields[1]) / 1e3)
    if len(modules) > 1:
        run.fail(f"import module count varies between interpreters: {sorted(modules)}")
    return {
        "interp.ms": statistics.median(floor) * 1e3,
        "import.ms": (statistics.median(full) - statistics.median(floor)) * 1e3,
        "import.numpy_ms": _median(numpy_ms),
        "import.modules": float(modules.pop()) if modules else 0.0,
    }


def trace_cli_workload(run: Run, pool) -> dict:
    """Each op runs as a subprocess, then in-process untraced and traced.

    All three must give the same exit code, stdout and stderr.
    """
    cli = _import_mmwprop().cli
    probes = import_probes(run)
    tracer = Tracer()
    execs = []
    cli.dispatch(list(pool[0].argv))   # first-call work, outside the spans

    def run_op(index, op):
        seq = len(execs)
        sub_s, code, out, err = run.child(("-m", "mmwprop", *op.argv))
        plain_s = traced_s = 0.0
        error = op.check(code, out, err)
        first_span = len(tracer.spans)
        for traced in (seq % 2 == 0, seq % 2 == 1):
            if traced:
                with tracer.active(seq):
                    start = perf_counter()
                    result = tracer.wrap(cli.dispatch)(list(op.argv))
                    traced_s = perf_counter() - start
            else:
                start = perf_counter()
                result = cli.dispatch(list(op.argv))
                plain_s = perf_counter() - start
            if (result.exit_code, result.stdout, result.stderr) != (code, out, err):
                error = error or (f"in-process {'traced' if traced else 'untraced'} "
                                  "dispatch differs from the subprocess")
        root = tracer.spans[first_span]
        execs.append({"exit": code, "out_bytes": len(out.encode()),
                      "ratio": traced_s / plain_s,
                      "unaccounted_ms": sub_s * 1e3 - probes["interp.ms"]
                      - probes["import.ms"] - root.ms})
        run.record(index, f"{op.kind} {' '.join(op.argv)}", out, error)
        return sub_s

    run.timed_loop(pool, run_op)
    return {**probes, **layer_metrics(tracer, execs, run.obs)}


# ---------------------------------------------------------------------------
# model_fit: in-process library calls
# ---------------------------------------------------------------------------

def run_model_fit(run: Run, trace: bool) -> dict:
    start = perf_counter()
    mm = _import_mmwprop()
    import_s = perf_counter() - start
    setup_times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        pool = workloads.model_fit_pool(run.seed, mm, workloads.Observations())
        for op in pool:   # warm-up: every call once, results unchecked
            op.call()
        setup_times.append(import_s + perf_counter() - start)
    pool = workloads.model_fit_pool(run.seed, mm, run.obs)
    if trace:
        return trace_model_fit(run, pool)

    def run_op(index, op):
        start = perf_counter()
        result = op.call()
        elapsed = perf_counter() - start
        run.record(index, op.kind, repr(result), op.check(result))
        return elapsed

    times = run.timed_loop(pool, run_op)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return end_to_end(setup_times, times, [op.rows for op in pool], rss)


def trace_model_fit(run: Run, pool) -> dict:
    probes = import_probes(run)
    tracer = Tracer()
    execs = []

    def run_op(index, op):
        seq = len(execs)
        plain_s = traced_s = 0.0
        outputs = []
        first_span = len(tracer.spans)
        for traced in (seq % 2 == 0, seq % 2 == 1):
            if traced:
                with tracer.active(seq):
                    start = perf_counter()
                    outputs.append(op.call())
                    traced_s = perf_counter() - start
            else:
                start = perf_counter()
                outputs.append(op.call())
                plain_s = perf_counter() - start
        error = op.check(outputs[0])
        if repr(outputs[0]) != repr(outputs[1]):
            error = error or "traced call returned a different result"
        root = tracer.spans[first_span]
        execs.append({"ratio": traced_s / plain_s,
                      "unaccounted_ms": traced_s * 1e3 - root.ms})
        run.record(index, op.kind, repr(outputs[0]), error)
        return plain_s

    run.timed_loop(pool, run_op)
    return {**probes, **layer_metrics(tracer, execs, run.obs)}


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, execs: list, obs: workloads.Observations) -> dict:
    """Per-layer times (medians over calls) and counts (per traced op)."""
    ops = len(execs)
    spans = tracer.spans

    def ms(*names):
        return _median([s.ms for s in tracer.by_name(*names)])

    def calls(layer):
        return sum(1 for s in spans if s.layer == layer) / ops

    roots = tracer.by_name("dispatch")
    loads = [s for s in tracer.by_name("load_path_loss_csv", "load_reflection_csv")
             if s.error is None]
    load_rows = sum(s.rows_out for s in loads)
    load_s = sum(s.end - s.start for s in loads)
    patterns = tracer.by_name("predict_pattern")
    pattern_ms = sum(s.ms for s in patterns)
    norm_in_patterns = sum(c.ms for s in patterns for c in s.children
                           if c.name == "ds_normalization")
    mmse = tracer.by_name("estimate_permittivity_mmse")
    return {
        "cli.parse_ms": _median([sum(c.ms for c in r.children
                                     if c.name in ("build_parser", "parse_args"))
                                 for r in roots]),
        "cli.self_ms": _median([r.self_ms for r in roots]),
        "cli.out_bytes": sum(e.get("out_bytes", 0) for e in execs) / ops,
        "cli.errors": sum(1 for e in execs if e.get("exit", 0) != 0) / ops,
        "cli.calls": calls("cli"),
        "datasets.load_ms": _median([s.ms for s in loads]),
        "datasets.rows": load_rows / ops,
        "datasets.load_rows_per_s": load_rows / load_s if load_s else 0.0,
        "datasets.validate_ms": ms("validate_dataset"),
        "datasets.lookup_ms": ms("paper_dataset", *DATASET_ACCESSORS),
        "datasets.failed": sum(1 for s in tracer.by_name("load_path_loss_csv",
                                                         "load_reflection_csv")
                               if s.error is not None) / ops,
        "datasets.calls": calls("datasets"),
        "pathloss.reduce_ms": ms("reduce_directional"),
        "pathloss.fit_ms": ms("fit_ci"),
        "pathloss.calls": calls("pathloss"),
        "reflection.mmse_small_ms": _median([s.ms for s in mmse if s.size < 100]),
        "reflection.mmse_large_ms": _median([s.ms for s in mmse if s.size >= 100]),
        "reflection.linear_ms": ms("fit_linear_reflection"),
        "reflection.eps_max_err": max(obs.eps_errors, default=0.0),
        "reflection.calls": calls("reflection"),
        "scattering.pattern_ms": ms("predict_pattern"),
        "scattering.norm_ms": ms("ds_normalization"),
        "scattering.norm_share": norm_in_patterns / pattern_ms if pattern_ms else 0.0,
        "scattering.classify_ms": ms("classify_smooth"),
        "scattering.calls": calls("scattering"),
        "partition.ms": _median([s.ms for s in spans if s.layer == "partition"]),
        "partition.calls": calls("partition"),
        "trace.overhead_ratio": _median([e["ratio"] for e in execs]),
        "trace.unaccounted_ms": _median([e["unaccounted_ms"] for e in execs]),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def stamp(loadavg_start) -> dict:
    """Host and code identity, so results from a noisy host can be spotted."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=git,
                                capture_output=True, text=True)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy_version, "git_sha": sha, "git_dirty": dirty,
            "loadavg_start": loadavg_start, "loadavg_end": list(os.getloadavg())}


def _workload(name: str, run: Run, trace: bool) -> dict:
    if name == "model_fit":
        return run_model_fit(run, trace)

    def make_pool():
        data = workloads.paper_inputs(run.seed, run.workdir)
        files = workloads.batch_inputs(run.seed, run.workdir)
        return (workloads.paper_pool(run.seed, data, run.obs)
                + workloads.batch_pool(run.seed, files))
    return run_cli_workload(run, make_pool, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_mix", "model_fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mmwprop" / "__init__.py").is_file():
        print(f"mmwprop sources not found under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind like an exception: subprocess.run kills the running
    # child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    loadavg_start = list(os.getloadavg())
    workdir = tempfile.mkdtemp(prefix=".mmwbench-", dir=ROOT)
    try:
        run = Run(args.seed, args.seconds, workdir)
        metrics = _workload(args.workload, run, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"mmwbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("stamp " + json.dumps(stamp(loadavg_start)))
    for name, unit in units.items():
        note = f"  ({NOTES[name]})" if name in NOTES else ""
        print(f"metric {name} = {metrics[name]:.6g} {unit}{note}")
    print(f"ops {run.attempted} attempted, {run.failed} failed "
          f"(fail_ratio {run.failed / run.attempted:.4f}); the timed loop ran "
          f"{run.loop_ops} ops ({run.loop_ops // run.pool_size} passes of {run.pool_size}) "
          f"in {run.loop_s:.2f} s, {run.loop_ops / run.loop_s:.4g} ops/s")
    print("queues: no layer has a queue, so no waiting time is recorded")
    for message in run.failures[:20]:
        print(f"FAIL {message}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
