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


def _tuple_new_references(tree, scope=""):
    """(enclosing classes and functions, dotted, line) of each ``tuple.__new__`` in the tree."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and isinstance(node.value, ast.Name) and node.value.id == "tuple"):
            yield scope, node.lineno
        inner = f"{scope}.{getattr(node, 'name', '<lambda>')}".lstrip(".") if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)) else scope
        yield from _tuple_new_references(node, inner)


def test_records_are_made_only_where_they_are_checked():
    """``tuple.__new__`` skips a record's checks, so only the one constructor that
    ``datasets._checked`` gives every checked record, and a record's column builder
    ``_from_columns``, may call it."""
    found = [(path.name, scope, line)
             for path in sorted((ROOT / "src" / "mmwprop").glob("*.py"))
             for scope, line in _tuple_new_references(
                 ast.parse(path.read_text(encoding="utf-8")))]
    constructors = [(name, scope) for name, scope, _ in found
                    if scope.split(".")[1:] != ["_from_columns"]]
    assert constructors == [("datasets.py", "_checked.__new__")], found
