"""The CSV loaders against a copy of the ``csv.DictReader`` loaders they replaced.

The oracle below is the ingestion code that had one loop per schema. It
shares the sample classes and the error classes with ``mmwprop.datasets``
and nothing else. On mutated CSV text the two must give the same samples,
or the same error class, message, row and column. The reader differs from
the oracle in two places, each pinned by its own test: a row that stops
before a text cell is an error (the oracle loaded ``None`` into the
sample), and a UTF-8 byte-order mark is accepted (the oracle read it as
part of the first column name).
"""

import csv
import io
import math
from dataclasses import fields

import pytest

from mmwprop.datasets import (
    PATH_LOSS_COLUMNS,
    PATTERN_COLUMNS,
    REFLECTION_COLUMNS,
    PathLossSample,
    ReflectionSample,
    load_path_loss_csv,
    load_pattern_csv,
    load_reflection_csv,
    save_path_loss_csv,
)
from mmwprop.errors import (
    BadNumericError,
    InvariantViolationError,
    MissingColumnError,
    MmwPropError,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _oracle_open_reader(path, columns):
    handle = open(path, newline="", encoding="utf-8")
    reader = csv.DictReader(handle)
    header = reader.fieldnames or []
    missing = [c for c in columns if c not in header]
    if missing:
        handle.close()
        raise MissingColumnError(f"missing column(s) {missing} in {path}")
    return handle, reader


def _oracle_parse_float(row_values, row, column):
    raw = row_values[column]
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadNumericError(row, column, "" if raw is None else raw) from None
    if not math.isfinite(value):
        raise BadNumericError(row, column, raw)
    return value


_PATH_LOSS_NUMERIC = ("freq_hz", "distance_m", "tx_az_deg", "tx_el_deg",
                      "rx_az_deg", "rx_el_deg", "path_loss_db")


def oracle_path_loss(path):
    handle, reader = _oracle_open_reader(path, PATH_LOSS_COLUMNS)
    samples = []
    with handle:
        for row_index, row in enumerate(reader, start=1):
            values = {c: _oracle_parse_float(row, row_index, c) for c in _PATH_LOSS_NUMERIC}
            try:
                samples.append(PathLossSample(
                    freq_hz=values["freq_hz"],
                    tx_id=row["tx_id"],
                    rx_id=row["rx_id"],
                    distance_m=values["distance_m"],
                    environment=row["environment"],
                    tx_az_deg=values["tx_az_deg"],
                    tx_el_deg=values["tx_el_deg"],
                    rx_az_deg=values["rx_az_deg"],
                    rx_el_deg=values["rx_el_deg"],
                    tx_pol=row["tx_pol"],
                    rx_pol=row["rx_pol"],
                    path_loss_db=values["path_loss_db"],
                ))
            except InvariantViolationError as err:
                raise InvariantViolationError(str(err), row=row_index) from None
    return samples


def oracle_reflection(path):
    handle, reader = _oracle_open_reader(path, REFLECTION_COLUMNS)
    samples = []
    with handle:
        for row_index, row in enumerate(reader, start=1):
            values = {c: _oracle_parse_float(row, row_index, c) for c in REFLECTION_COLUMNS}
            try:
                samples.append(ReflectionSample(**values))
            except InvariantViolationError as err:
                raise InvariantViolationError(str(err), row=row_index) from None
    return samples


def oracle_pattern(path):
    handle, reader = _oracle_open_reader(path, PATTERN_COLUMNS)
    with handle:
        return [tuple(_oracle_parse_float(row, row_index, c) for c in PATTERN_COLUMNS)
                for row_index, row in enumerate(reader, start=1)]


def _number(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


_ANGLE = _number(-180.0, 180.0)
_CELLS = {
    "freq_hz": st.sampled_from(["28e9", "73e9", "142e9", "1.42E+11"]),
    "tx_id": st.sampled_from(["tx1", "tx2", "", "a b"]),
    "rx_id": st.sampled_from(["rx1", "rx2", "rx,3"]),
    "distance_m": _number(1.0, 100.0),
    "environment": st.sampled_from(["LOS", "NLOS"]),
    "tx_az_deg": _ANGLE, "tx_el_deg": _ANGLE, "rx_az_deg": _ANGLE, "rx_el_deg": _ANGLE,
    "tx_pol": st.sampled_from(["V", "H"]),
    "rx_pol": st.sampled_from(["V", "H"]),
    "path_loss_db": _number(1.0, 200.0),
    "incident_angle_deg": _number(1.0, 89.0),
    "reflection_loss_db": _number(0.0, 40.0),
    "observation_angle_deg": _number(-90.0, 90.0),
    "relative_power_db": _number(-60.0, 0.0),
    "extra": st.sampled_from(["x", "1"]),
}
# Cells that break a number, an enum or a range, or that a float accepts
# only loosely.
_BAD_TOKENS = st.sampled_from([
    "", "abc", "nan", "inf", "-inf", "1e400", " 2.5 ", "1_0", "0", "-1", "95",
    "NLOS_BEST", "los", "X", "H", "1,5", '"q"', "\t",
])
_MUTATIONS = st.sampled_from(["none"] * 4 + ["bad"] * 3 + ["short", "long", "shuffle", "blank"])


@st.composite
def mutated_csv(draw, columns):
    """CSV text for ``columns`` with reordered, dropped, repeated or extra
    header names and rows that carry bad tokens, stop early, run long, are
    shuffled or follow blank lines."""
    header = list(draw(st.permutations(columns)))
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(columns)))
    for _ in range(draw(st.integers(0, 2))):
        header.insert(draw(st.integers(0, len(header))),
                      draw(st.sampled_from([*columns, "extra"])))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(_CELLS[name]) for name in header]
        mutation = draw(_MUTATIONS)
        if mutation == "bad":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_BAD_TOKENS)
        elif mutation == "short":
            cells = cells[:-draw(st.one_of(st.integers(1, 2), st.integers(1, len(cells))))]
        elif mutation == "long":
            cells += draw(st.lists(_BAD_TOKENS, min_size=1, max_size=3))
        elif mutation == "shuffle":
            cells = list(draw(st.permutations(cells)))
        elif mutation == "blank":
            lines.append([])
        lines.append(cells)
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(lines)
    return out.getvalue()


def outcome(load, path):
    """The samples, or the error class, message, row and column."""
    try:
        return load(path)
    except MmwPropError as err:
        return (type(err), str(err), getattr(err, "row", None), getattr(err, "column", None))


def first_short_row(text, columns, numeric):
    """(data row, column) of the first row that stops before a text cell."""
    rows = csv.reader(io.StringIO(text, newline=""))
    index = {name: i for i, name in enumerate(next(rows, []))}
    if any(c not in index for c in columns):
        return None
    text_columns = [c for c in columns if c not in numeric]
    data_rows = (cells for cells in rows if cells)
    for number, cells in enumerate(data_rows, start=1):
        for column in text_columns:
            if index[column] >= len(cells):
                return number, column
    return None


def expected_outcome(oracle, short):
    """The oracle's outcome, up to the first row that lacks a text cell.

    On that row a bad number is still reported first; otherwise the reader
    names the absent cell, where the oracle went on with ``None``.
    """
    if short is None:
        return oracle
    row, column = short
    if isinstance(oracle, tuple) and (oracle[0] is MissingColumnError or oracle[2] < row
                                      or oracle[0] is BadNumericError and oracle[2] == row):
        return oracle
    return (InvariantViolationError, f"data row {row}: no cell for column {column!r}", row, None)


SCHEMAS = {
    "path_loss": (PATH_LOSS_COLUMNS, _PATH_LOSS_NUMERIC, load_path_loss_csv, oracle_path_loss),
    "reflection": (REFLECTION_COLUMNS, REFLECTION_COLUMNS, load_reflection_csv,
                   oracle_reflection),
    "pattern": (PATTERN_COLUMNS, PATTERN_COLUMNS, load_pattern_csv, oracle_pattern),
}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "data.csv"


@pytest.mark.parametrize("schema", SCHEMAS)
@hypothesis.settings(max_examples=400)
@hypothesis.given(data=st.data())
def test_reader_agrees_with_dictreader_oracle(schema, data, csv_path):
    columns, numeric, load, oracle = SCHEMAS[schema]
    text = data.draw(mutated_csv(columns), label="csv")
    csv_path.write_text(text, encoding="utf-8", newline="")
    short = first_short_row(text, columns, numeric)
    assert outcome(load, csv_path) == expected_outcome(outcome(oracle, csv_path), short)


@pytest.mark.parametrize("schema", SCHEMAS)
def test_byte_order_mark_is_skipped(schema, tmp_path):
    columns, _, load, oracle = SCHEMAS[schema]
    rows = {
        "path_loss": "142e9,tx1,rx1,5.0,LOS,0,0,10,0,V,H,88.5\n",
        "reflection": "142e9,30,7.53\n",
        "pattern": "-10,-25.5\n",
    }[schema]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(",".join(columns) + "\n" + rows, encoding="utf-8")
    marked.write_text(",".join(columns) + "\n" + rows, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(marked) == load(plain) == oracle(plain)
    with pytest.raises(MissingColumnError):
        oracle(marked)


@pytest.mark.parametrize("row, error, message", [
    ("142e9,tx1,5.0,LOS,0,0,0,0,V,V,88.5",
     InvariantViolationError, "data row 1: no cell for column 'rx_id'"),
    ("142e9,tx1,5.0,LOS,0,0,0,0,V,V,oops",
     BadNumericError, "data row 1, column 'path_loss_db': not a finite number: 'oops'"),
])
def test_short_row_names_the_absent_text_cell(row, error, message, tmp_path):
    path = tmp_path / "short.csv"
    columns = [c for c in PATH_LOSS_COLUMNS if c != "rx_id"] + ["rx_id"]
    path.write_text(",".join(columns) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(error) as excinfo:
        load_path_loss_csv(path)
    assert str(excinfo.value) == message
    assert excinfo.value.row == 1
    if error is InvariantViolationError:  # where the oracle loaded the absent cell as None
        assert oracle_path_loss(path)[0].rx_id is None


def test_columns_follow_the_sample_fields():
    """The loaders build samples positionally, in column order."""
    assert PATH_LOSS_COLUMNS == tuple(f.name for f in fields(PathLossSample))
    assert REFLECTION_COLUMNS == tuple(f.name for f in fields(ReflectionSample))


_ID_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                   max_size=6)
_SAMPLES = st.lists(st.builds(
    PathLossSample,
    freq_hz=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    tx_id=_ID_TEXT,
    rx_id=_ID_TEXT,
    distance_m=st.floats(min_value=1.0, allow_infinity=False),
    environment=st.sampled_from(["LOS", "NLOS"]),
    tx_az_deg=st.floats(allow_nan=False, allow_infinity=False),
    tx_el_deg=st.floats(allow_nan=False, allow_infinity=False),
    rx_az_deg=st.floats(allow_nan=False, allow_infinity=False),
    rx_el_deg=st.floats(allow_nan=False, allow_infinity=False),
    tx_pol=st.sampled_from(["V", "H"]),
    rx_pol=st.sampled_from(["V", "H"]),
    path_loss_db=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
), max_size=8)


@hypothesis.settings(max_examples=200)
@hypothesis.given(samples=_SAMPLES)
def test_save_then_load_round_trips_exactly(samples, csv_path):
    save_path_loss_csv(samples, csv_path)
    loaded = load_path_loss_csv(csv_path)
    assert repr(loaded) == repr(samples)
