"""The names the benchmark's tracer patches still exist.

``bench/spans.py`` wraps public functions by module attribute and the
accessor methods of ``PaperDataset`` by name. A rename breaks only traced
benchmark runs, so the names are checked here, reading the tracer's own
lists from its file.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from mmwprop.datasets import PaperDataset

spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))


@pytest.mark.parametrize("module_name, attrs", spans["TRACED"])
def test_traced_attributes_exist(module_name, attrs):
    module = importlib.import_module(module_name)
    assert [a for a in attrs if not hasattr(module, a)] == []


def test_dataset_accessors_are_methods_of_the_dataset():
    assert [a for a in spans["DATASET_ACCESSORS"] if a not in PaperDataset.__dict__] == []
