"""Tests of the benchmark itself: python -m pytest bench"""

import json
import statistics

import pytest

import inputs
import run
import workloads
from spans import Tracer


@pytest.fixture(scope="module")
def mm():
    return run._import_mmwprop()


@pytest.fixture()
def small(tmp_path):
    data = workloads.paper_inputs(7, str(tmp_path))
    return data, workloads.paper_pool(7, data, workloads.Observations())


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    workloads.paper_inputs(3, str(tmp_path / "a"))
    workloads.paper_inputs(3, str(tmp_path / "b"))
    workloads.paper_inputs(4, str(tmp_path / "c"))
    first, again, other = (_files(tmp_path / n) for n in ("a", "b", "c"))
    assert first == again
    assert first.keys() == other.keys() and first != other


def test_path_loss_file_has_fixed_shape(tmp_path):
    info = inputs.write_path_loss_csv(str(tmp_path / "x.csv"), inputs.rng_for(1, "x"),
                                      73e9, 1000)
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert lines[0] == ",".join(inputs.PATH_LOSS_HEADER)
    assert len(lines) == 1001 == info.los_count + info.nlos_count + 1
    assert info.fits["ALL"].n == 1000


def test_every_op_passes_on_the_library(small, mm):
    _, pool = small
    for op in pool:
        result = mm.cli.dispatch(list(op.argv))
        assert op.check(result.exit_code, result.stdout, result.stderr) is None, op.argv
    obs = workloads.Observations()
    for op in workloads.model_fit_pool(7, mm, obs):
        assert op.check(op.call()) is None, op.kind
    assert len(obs.eps_errors) == 10


def test_pools_have_the_stated_mix(small, mm):
    _, pool = small
    errors = {"usage-error", "FileNotFound", "TooFewSamples", "BadNumeric"}
    assert len(pool) == 40
    assert sorted(op.kind for op in pool if op.kind in errors) == sorted(errors)
    assert {op.argv[0] for op in pool if op.kind not in errors} == {
        "fresnel", "estimate-eps", "fit-linear", "scatter-pattern", "backscatter",
        "partition", "xpd", "depol-margin", "budget", "fspl", "ci-eval", "fit-ci",
        "reduce-directional", "paper-tables", "validate"}
    kinds = [op.kind for op in workloads.model_fit_pool(7, mm, workloads.Observations())]
    assert len(kinds) == 20
    assert kinds.count("mmse-1000") + kinds.count("pattern-161") == 5


def _fit_ci_op(pool, env):
    return next(op for op in pool if op.kind == "fit-ci" and op.argv[-1] == env)


def test_tampered_output_counts_as_failed(small, mm, tmp_path):
    data, pool = small
    op = _fit_ci_op(pool, "LOS")
    good = mm.cli.dispatch(list(op.argv)).stdout
    assert op.check(0, good, "") is None
    payload = json.loads(good)
    payload["ple"] += 0.01
    assert "ple" in op.check(0, json.dumps(payload), "")
    assert "non-finite" in op.check(0, good.replace(str(json.loads(good)["ple"]), "NaN"), "")
    assert op.check(2, "", "BadNumeric: data row 3") is not None

    bench = run.Run(1, 1.0, str(tmp_path))
    bench.record(0, "fit-ci", good, op.check(0, good, ""))
    bench.record(0, "fit-ci", good + " ", None)        # same op, different bytes
    bench.record(1, "fit-ci", "", op.check(0, json.dumps(payload), ""))
    assert (bench.attempted, bench.failed) == (3, 2)


def test_error_ops_name_the_planted_row(small, mm):
    data, pool = small
    op = next(op for op in pool if op.kind == "BadNumeric")
    result = mm.cli.dispatch(list(op.argv))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"BadNumeric: data row {data.bad.bad_row}, ")
    assert op.check(2, "", result.stderr.replace(f"row {data.bad.bad_row},", "row 0,")) \
        is not None


@pytest.mark.parametrize("values", [[1.0, 2.0], [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]])
def test_percentile_matches_inclusive_quantiles(values):
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert run.percentile(values, 25) == pytest.approx(quartiles[0])
    assert run.percentile(values, 75) == pytest.approx(quartiles[2])
    assert run.percentile(values, 0) == min(values)
    assert run.percentile(values, 100) == max(values)
    assert run.percentile(values, 50) == pytest.approx(statistics.median(values))


def test_percentile_interpolates_between_ranks():
    assert run.percentile([10.0, 20.0, 30.0, 40.0], 90) == pytest.approx(37.0)
    assert run.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_trace_leaves_dispatch_output_byte_identical(small, mm):
    _, pool = small
    originals = {name: getattr(mm.cli, name) for name in ("build_parser", "fit_ci")}
    tracer = Tracer()
    for seq, op in enumerate(pool):
        plain = mm.cli.dispatch(list(op.argv))
        with tracer.active(seq):
            traced = tracer.wrap(mm.cli.dispatch)(list(op.argv))
        assert traced == plain, op.argv
    assert {name: getattr(mm.cli, name) for name in originals} == originals
    patterns = tracer.by_name("predict_pattern")
    assert patterns and all([c.name for c in s.children] == ["fresnel_gamma_perp",
                                                              "ds_normalization"]
                            or [c.name for c in s.children] == ["ds_normalization",
                                                                "fresnel_gamma_perp"]
                            for s in patterns)
    assert all(s.parent is None for s in tracer.by_name("dispatch"))


def test_layer_metrics_cover_every_per_layer_name(small, mm):
    _, pool = small
    tracer = Tracer()
    execs = []
    for seq, op in enumerate(pool):
        with tracer.active(seq):
            result = tracer.wrap(mm.cli.dispatch)(list(op.argv))
        execs.append({"exit": result.exit_code, "out_bytes": len(result.stdout),
                      "ratio": 1.0, "unaccounted_ms": 1.0})
    metrics = run.layer_metrics(tracer, execs, workloads.Observations())
    probes = {"interp.ms", "import.ms", "import.numpy_ms", "import.modules"}
    assert set(metrics) | probes == set(run.PER_LAYER)
    assert metrics["cli.errors"] == pytest.approx(0.1)
    assert metrics["scattering.norm_share"] > 0.5


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["cli_mix", "model_fit"]
