"""README's "Library quickstart" block runs as written and prints what it says,
and its error table lists every error the library raises.

The block calls the public API (``sweep_geometries``, ``predict_pattern``,
``partition_mean_db``, ...), so a change to any of them that leaves the
README stale fails here. So does a new ``MmwPropError`` without a table row.
"""

import ast
import contextlib
import io
import pathlib
import re

import pytest

from mmwprop.errors import MmwPropError

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _quickstart() -> str:
    match = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)
    assert match, "README has no Library quickstart python block"
    return match.group(1)


def test_quickstart_runs_and_prints_the_published_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quickstart(), str(README), "exec"), {"__name__": "quickstart"})
    eps, fractions, scatter = out.getvalue().splitlines()
    assert float(eps) == pytest.approx(6.4237, abs=1e-4)
    assert [float(f) for f in fractions.split()] == pytest.approx(
        [0.1885, 0.1426, 0.6690], abs=1e-4)
    margin, smooth = scatter.split()
    assert float(margin) == pytest.approx(27.88, abs=1e-2)
    assert smooth == "True"


def _error_table() -> dict:
    """The first and second cells of each row of README's error table, by name."""
    section = re.search(r"^## Errors\n(.*?)^## ", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert section, "README has no Errors section"
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|", section.group(1), re.M)
    return dict(rows)


def _raised_names() -> set:
    """The names in every ``raise X(...)`` and ``raise X`` under src/."""
    names = set()
    for path in (ROOT / "src" / "mmwprop").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_is_in_the_readme_table_and_raised_somewhere():
    table, raised = _error_table(), _raised_names()
    errors = MmwPropError.__subclasses__()
    assert len(errors) == len(table)  # no row for an error that is gone
    for error in errors:
        name = error.__name__.removesuffix("Error")
        assert table.get(name) == "2", name
        assert error.__name__ in raised, name
