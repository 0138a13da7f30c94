"""mmwprop runs on the standard library alone; numpy is a test dependency."""

import ast
import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_pyproject_declares_no_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_numpy():
    modules = sorted((ROOT / "src" / "mmwprop").glob("*.py"))
    assert modules
    assert {path.name for path in modules if "numpy" in _imported_roots(path)} == set()
