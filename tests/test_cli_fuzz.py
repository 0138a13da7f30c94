"""The CLI contract under fuzzed input, in process through ``dispatch``.

``scatter-pattern`` gets argv drawn from its own argparse spec, and
``backscatter`` gets mutated pattern-CSV text. Every case must exit 0, 1 or
2 without an exception escaping ``dispatch``, print strict JSON (or a CSV of
finite numbers) on success and nothing on failure, and give the same result
when run again.
"""

import argparse
import csv
import io
import json
import math
import re

import pytest

from mmwprop.cli import build_parser, dispatch
from mmwprop.datasets import PATTERN_COLUMNS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_ERROR_LINE = re.compile(r"[A-Z][A-Za-z]*: .+\n\Z", re.DOTALL)


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def assert_contract(argv):
    result = dispatch(argv)
    assert result.exit_code in (0, 1, 2), result
    if result.exit_code == 0:
        assert result.stderr == ""
        if result.stdout.startswith("{"):
            json.loads(result.stdout, parse_constant=_reject)
        else:
            rows = list(csv.reader(io.StringIO(result.stdout)))
            assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)
    else:
        assert result.stdout == ""
        if result.exit_code == 1:
            assert result.stderr.startswith("usage: mmwprop ")
        else:
            assert _ERROR_LINE.match(result.stderr), result.stderr
    assert dispatch(argv) == result


def _subcommand_actions(name):
    """The options of one subcommand, less help and ``--output``."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return [a for a in subparsers.choices[name]._actions
            if a.option_strings and a.dest not in ("help", "output")]


_EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e-6, 1e6)
_ANY_FLOAT = st.one_of(st.sampled_from(_EXTREME_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False)).map(repr)
_BAD_FLOAT = st.sampled_from(("inf", "-inf", "nan", "1e400", "-1e400", "abc", "", "1,5", "0x10"))
_BAD_INT = st.sampled_from(("1000001", str(10 ** 23), "2.5", "4.0", "x", "-1"))


def _mostly(plausible, extreme, bad):
    """Of twenty draws, sixteen plausible, three extreme and one malformed."""
    return st.integers(0, 19).flatmap(
        lambda k: plausible if k < 16 else extreme if k < 19 else bad)


def _value(action):
    """Option text drawn from the option's type, default and choices."""
    if action.choices:
        return _mostly(st.sampled_from(action.choices), st.just("xml"), st.just(""))
    if action.type is int:
        return _mostly(st.integers(1, 2 * action.default).map(str),
                       st.integers().map(str), _BAD_INT)
    if action.default is None:
        plausible = st.floats(0.0, 89.0).map(repr)
    else:
        plausible = st.one_of(st.just(repr(action.default)),
                              st.floats(0.0, 2.0 * action.default).map(repr))
    return _mostly(plausible, _ANY_FLOAT, _BAD_FLOAT)


_SCATTER_ACTIONS = _subcommand_actions("scatter-pattern")


@st.composite
def scatter_argv(draw):
    argv = ["scatter-pattern"]
    for action in draw(st.permutations(_SCATTER_ACTIONS)):
        if draw(st.integers(0, 9)) < (9 if action.required else 4):
            argv += [action.option_strings[-1], draw(_value(action))]
    if draw(st.integers(0, 19)) == 19:  # options the model no longer takes
        argv += [draw(st.sampled_from(("--tx-distance", "--rx-distance"))), "1.5"]
    return argv


_BASE = ["scatter-pattern", "--eps", "6.4", "--incident-angle", "30"]


@hypothesis.settings(max_examples=100)
@hypothesis.example(argv=[*_BASE, "--step", "1e-310"])
@hypothesis.example(argv=[*_BASE, "--step", "1.7976931348623157e+308", "--format", "csv"])
@hypothesis.example(argv=[*_BASE, "--tx-distance", "0"])
@hypothesis.example(argv=[*_BASE, "--hpbw", "1e-06", "--spread-deg", "0", "--s-coeff", "0"])
@hypothesis.example(argv=[*_BASE, "--eps", "1", "--s-coeff", "0"])
@hypothesis.given(argv=scatter_argv())
def test_scatter_pattern_keeps_the_contract(argv):
    assert_contract(argv)


_ANGLE = _mostly(st.floats(-80.0, 80.0).map(repr), _ANY_FLOAT, _BAD_FLOAT)
_LEVEL = _mostly(st.floats(-80.0, 0.0).map(repr), _ANY_FLOAT, _BAD_FLOAT)
_HEADERS = (",".join(PATTERN_COLUMNS), ",".join(reversed(PATTERN_COLUMNS)),
            ",".join(PATTERN_COLUMNS) + ",extra", "observation_angle_deg,power_db",
            "\ufeff" + ",".join(PATTERN_COLUMNS), "")
_ROW = _mostly(st.tuples(_ANGLE, _LEVEL).map(",".join),
               st.lists(_ANGLE, max_size=3).map(",".join),
               st.text(st.characters(exclude_categories=("Cs",)), max_size=12))


@st.composite
def pattern_csv(draw):
    lines = [draw(st.sampled_from(_HEADERS)), *draw(st.lists(_ROW, max_size=8))]
    return "\n".join(lines) + draw(st.sampled_from(("\n", "\r\n", "")))


@pytest.fixture(scope="module")
def pattern_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "pattern.csv"


@hypothesis.settings(max_examples=120)
@hypothesis.example(text=",".join(PATTERN_COLUMNS) + "\n", angle="30")
@hypothesis.example(text=",".join(PATTERN_COLUMNS) + "\n-30,-1e308\n30,1e308\n", angle="30")
@hypothesis.example(text=",".join(PATTERN_COLUMNS) + "\n-30,-40\n40,-2\n20,-2\n", angle="30")
@hypothesis.given(text=pattern_csv(), angle=_ANGLE)
def test_backscatter_keeps_the_contract(text, angle, pattern_path):
    pattern_path.write_text(text, encoding="utf-8", newline="")
    assert_contract(["backscatter", "--input", str(pattern_path), "--incident-angle", angle])
