"""The benchmark's in-process calls still fit the library.

``bench/workloads.py`` builds the ``model_fit`` pool from public calls
(``sweep_geometries``, ``predict_pattern``, ``estimate_permittivity_mmse``,
...), each with a check against an answer computed without mmwprop. Running
every op once here catches a rename or a changed call shape behind a kept
name, which would otherwise break only benchmark runs. ``bench/`` is read,
never changed.
"""

import importlib
import pathlib
import sys

import pytest

import mmwprop

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "inputs"):  # bench's own module names
        sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [1, 7])
def test_every_model_fit_op_passes_its_check(workloads, seed):
    ops = workloads.model_fit_pool(seed, mmwprop, workloads.Observations())
    assert ops
    assert [(op.kind, op.check(op.call())) for op in ops] == [(op.kind, None) for op in ops]
