"""The CLI contract under fuzzed input, in process through ``dispatch``.

Every subcommand gets argv drawn from its entry in the command table,
``backscatter`` also gets mutated pattern-CSV text, and ``validate``,
``fit-ci`` and ``estimate-eps`` get valid path-loss and reflection CSVs with
mutated bytes. Every case must exit 0, 1 or 2 without an exception
escaping ``dispatch``. On success it prints strict JSON, a CSV whose
numbers are finite, or the help; on failure it prints nothing to stdout. A
second run gives the same result. A last property checks that parsing with
one subcommand's parser gives what the full parser gives.
"""

import csv
import io
import json
import math
import re

import pytest

from mmwprop.cli import COMMANDS, _Help, _parse, _UsageError, build_parser, dispatch
from mmwprop.datasets import PATH_LOSS_COLUMNS, PATTERN_COLUMNS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_ERROR_LINE = re.compile(r"[A-Z][A-Za-z]*: .+\n\Z", re.DOTALL)


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def _finite_or_text(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:  # an id, an environment or a polarization
        return True


def assert_contract(argv):
    result = dispatch(argv)
    assert result.exit_code in (0, 1, 2), result
    if result.exit_code == 0:
        assert result.stderr == ""
        if result.stdout.startswith("{"):
            json.loads(result.stdout, parse_constant=_reject)
        elif not result.stdout.startswith("usage: mmwprop "):  # the help text
            rows = list(csv.reader(io.StringIO(result.stdout)))
            assert all(_finite_or_text(cell) for row in rows[1:] for cell in row)
    else:
        assert result.stdout == ""
        if result.exit_code == 1:
            assert result.stderr.startswith("usage: mmwprop ")
        else:
            assert _ERROR_LINE.match(result.stderr), result.stderr
    assert dispatch(argv) == result
    return result


_EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e-6, 1e6, -1e3)


def _float_text(x):
    """``repr(x)`` or the exponent form: argparse alone reads "-1e3" as an option."""
    return st.sampled_from((repr(x), f"{x:e}"))


_ANY_FLOAT = st.one_of(st.sampled_from(_EXTREME_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False)).flatmap(_float_text)
_BAD_FLOAT = st.sampled_from(("inf", "-inf", "nan", "1e400", "-1e400", "abc", "", "1,5", "0x10"))
_BAD_INT = st.sampled_from(("1000001", str(10 ** 23), "2.5", "4.0", "x", "-1"))
_STRAY = st.sampled_from(("--zz", "--zz=1", "stray", "--", "-1e3", "-h", "--help",
                          "--tx-distance", "--rx-distance"))


def _mostly(plausible, extreme, bad):
    """Of twenty draws, sixteen plausible, three extreme and one malformed."""
    return st.integers(0, 19).flatmap(
        lambda k: plausible if k < 16 else extreme if k < 19 else bad)


def _value(option):
    """Option text drawn from the option's type, default and choices."""
    if option.choices:
        return _mostly(st.sampled_from(option.choices), st.just("xml"), st.just(""))
    if option.type is None:  # a path: placeholders that the tests replace with real paths
        readable = ("{reflection}", "{path_loss}", "{pattern}") if option.required else ("{out}",)
        return _mostly(st.sampled_from(readable), st.just("{dir}"), st.just("{missing}"))
    if option.type is int:
        return _mostly(st.integers(1, 2 * option.default).map(str),
                       st.integers().map(str), _BAD_INT)
    if option.default is None:
        plausible = st.floats(0.0, 89.0).flatmap(_float_text)
        if option.flag == "--freq":  # the frequency of the test files, too
            plausible = st.one_of(st.just("142e9"), plausible)
    else:
        plausible = st.one_of(st.just(repr(option.default)),
                              st.floats(0.0, 2.0 * option.default).flatmap(_float_text))
    return _mostly(plausible, _ANY_FLOAT, _BAD_FLOAT)


@st.composite
def command_argv(draw, name):
    """argv for one subcommand, from its table entry: each required option
    nine times in ten, each other option four in ten, and one time in ten a
    stray token or a help flag at any place after the name."""
    argv = [name]
    for option in draw(st.permutations(COMMANDS[name].parser_options())):
        if draw(st.integers(0, 9)) < (9 if option.required else 4):
            argv += [option.flag, *(draw(_value(option)) for _ in range(option.nargs or 1))]
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(1, len(argv))), draw(_STRAY))
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Placeholder -> path: one readable file of each CSV kind, and paths that fail."""
    root = tmp_path_factory.mktemp("fuzz-files")
    texts = {
        "reflection": "freq_hz,incident_angle_deg,reflection_loss_db\n"
                      "142e9,10,7.4\n142e9,30,7.9\n142e9,60,5.1\n142e9,80,1.4\n",
        "path_loss": ",".join(PATH_LOSS_COLUMNS) + "\n" + "".join(
            f"142e9,tx1,rx{i},{d},{env},0,0,0,0,V,V,{75 + 25 * d ** 0.5}\n"
            for i, (d, env) in enumerate(((1.5, "LOS"), (3.0, "NLOS"), (6.0, "NLOS")))),
        "pattern": ",".join(PATTERN_COLUMNS) + "\n-30,-30\n0,-25\n30,0\n60,-28\n",
    }
    paths = {}
    for kind, text in texts.items():
        paths["{%s}" % kind] = root / f"{kind}.csv"
        paths["{%s}" % kind].write_text(text, encoding="utf-8")
    paths.update({"{missing}": root / "no-such-dir" / "x.csv", "{dir}": root,
                  "{out}": root / "out.txt"})
    return {placeholder: str(path) for placeholder, path in paths.items()}


def _with_files(argv, files):
    return [files.get(arg, arg) for arg in argv]


_BASE = ["scatter-pattern", "--eps", "6.4", "--incident-angle", "30"]


@hypothesis.settings(max_examples=100)
@hypothesis.example(argv=[*_BASE, "--step", "1e-310"])
@hypothesis.example(argv=[*_BASE, "--step", "1.7976931348623157e+308", "--format", "csv"])
@hypothesis.example(argv=[*_BASE, "--tx-distance", "0"])
@hypothesis.example(argv=[*_BASE, "--hpbw", "1e-06", "--spread-deg", "0", "--s-coeff", "0"])
@hypothesis.example(argv=[*_BASE, "--eps", "1", "--s-coeff", "0"])
@hypothesis.given(argv=command_argv("scatter-pattern"))
def test_scatter_pattern_keeps_the_contract(argv, files):
    assert_contract(_with_files(argv, files))


_EXPONENT_FORM = re.compile(r"-?[0-9]\.[0-9]+e[-+][0-9]+")


@pytest.mark.parametrize("name", COMMANDS)
def test_every_subcommand_keeps_the_contract(name, files):
    """And a number in exponent form acts as its ``repr`` does."""
    @hypothesis.settings(max_examples=40)
    @hypothesis.given(argv=command_argv(name))
    def check(argv):
        argv = _with_files(argv, files)
        result = assert_contract(argv)
        decimal = dispatch([repr(float(arg)) if _EXPONENT_FORM.fullmatch(arg) else arg
                            for arg in argv])
        assert (decimal.exit_code, decimal.stdout) == (result.exit_code, result.stdout)
    check()


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


# Bytes a mutation writes over a cell or puts between bytes: numbers at and
# past the float range, both zeros, non-numbers, and bytes that break the CSV
# or its encoding.
_CELL_BYTES = (b"1e200", b"-1e200", b"1e308", b"5e-324", b"-0", b"0", b"nan", b"inf", b"",
               b"NLOS_BEST", b"90", b"-1", b"\xff", b'"', b"\x00", b",", b"\n", b"\r",
               b"\xef\xbb\xbf")
_CELL = re.compile(rb"[^,\n]*")
_DECIMAL = re.compile(rb"-?[0-9]+(\.[0-9]*)?")


@st.composite
def mutated_bytes(draw, data):
    """``data`` with one to three mutations: a cell (the bytes between two
    delimiters, header included) replaced, a decimal cell given an exponent
    that keeps it a finite float too large to square, or, after the header,
    a byte set, bytes inserted or a span deleted."""
    body = data.index(b"\n") + 1
    for _ in range(draw(st.integers(1, 3))):
        cells = [m.span() for m in _CELL.finditer(data)]
        kind = draw(st.sampled_from(("cell", "exponent", "exponent", "set", "insert", "delete")))
        if kind == "cell":
            start, end = draw(st.sampled_from(cells))
            data = data[:start] + draw(st.sampled_from(_CELL_BYTES)) + data[end:]
        elif kind == "exponent":
            decimals = [end for start, end in cells if _DECIMAL.fullmatch(data, start, end)]
            if decimals:
                at = draw(st.sampled_from(decimals))
                data = data[:at] + draw(st.sampled_from((b"e200", b"e300"))) + data[at:]
        elif kind == "set" and body < len(data):
            at = draw(st.integers(body, len(data) - 1))
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "insert":
            at = draw(st.integers(min(body, len(data)), len(data)))
            data = (data[:at] + draw(st.one_of(st.sampled_from(_CELL_BYTES),
                                               st.binary(min_size=1, max_size=3)))
                    + data[at:])
        else:
            at = draw(st.integers(min(body, len(data)), len(data)))
            data = data[:at] + data[at + draw(st.integers(1, 8)):]
    return data


@pytest.fixture(scope="module")
def mutated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.csv"


_CSV_COMMANDS = (["validate"], ["fit-ci", "--freq", "142e9"], ["estimate-eps"])


@hypothesis.settings(max_examples=300)
@hypothesis.given(data=st.data())
def test_mutated_csv_bytes_keep_the_contract(data, files, mutated_path):
    """Every mutated file, through every command that reads a path-loss or a
    reflection CSV: exit 0 or 2 and the rest of the contract."""
    kind = data.draw(st.sampled_from(("path_loss", "reflection")), label="kind")
    with open(files["{%s}" % kind], "rb") as handle:
        text = data.draw(mutated_bytes(handle.read()), label="bytes")
    mutated_path.write_bytes(text)
    for command in _CSV_COMMANDS:
        result = assert_contract([command[0], "--input", str(mutated_path), *command[1:]])
        assert result.exit_code in (0, 2), result
        assert "Traceback" not in result.stderr


def _tokens(name):
    """Argument text for one subcommand: its flags, whole, abbreviated and as
    ``--flag=value``, values of every kind, and words no parser knows."""
    flags = [o.flag for o in COMMANDS[name].parser_options()]
    values = ["1.5", "-1e3", "30", "LOS", "json", "csv", "II", "x", ""]
    return st.one_of(st.sampled_from(flags), st.sampled_from(values), _STRAY,
                     st.sampled_from(flags).map(lambda flag: flag[:4]),
                     st.tuples(st.sampled_from(flags), st.sampled_from(values))
                     .map("=".join))


_ARGV = st.one_of(
    st.sampled_from(list(COMMANDS)).flatmap(
        lambda name: st.lists(_tokens(name), max_size=8).map(lambda rest: [name, *rest])),
    st.lists(st.sampled_from(["-h", "--", "nosuch", "--zz", "fspl", "--freq", "1"]),
             max_size=3))


def _outcome(parse, argv):
    try:
        args = parse(argv)
    except (_Help, _UsageError) as err:
        return type(err), str(err)
    return {key: value for key, value in vars(args).items() if key != "command"}


@hypothesis.settings(max_examples=150)
@hypothesis.example(argv=["fspl", "--freq", "28e9", "--distance-m", "1", "stray"])
@hypothesis.example(argv=["fspl", "--freq", "28e9", "--distance-m", "1", "--"])
@hypothesis.example(argv=["xpd", "--co", "5", "--cross-db=5", "-h"])
@hypothesis.given(argv=_ARGV)
def test_one_command_parse_agrees_with_the_full_parser(argv):
    assert _outcome(lambda a: _parse(a)[1], argv) == _outcome(build_parser().parse_args, argv)
