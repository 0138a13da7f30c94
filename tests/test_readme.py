"""README's "Library quickstart" block runs as written and prints what it says.

The block calls the public API (``sweep_geometries``, ``predict_pattern``,
``partition_mean_db``, ...), so a change to any of them that leaves the
README stale fails here.
"""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
