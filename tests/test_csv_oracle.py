"""The CSV loaders against a copy of the ``csv.DictReader`` loaders they replaced.

The oracle below is the ingestion code that had one loop per schema. It
shares the sample classes and the error classes with ``mmwprop.datasets``
and nothing else. On mutated CSV text the two must give the same samples,
or the same error class, message, row and column. The reader differs from
the oracle in two places, each pinned by its own test: a row that stops
before a text cell is an error naming the cell (the oracle passes
``None`` to the sample, which rejects it), and a UTF-8 byte-order mark is
accepted (the oracle read it as part of the first column name). A byte that
is not UTF-8 is a third: the reader names its row, in row order, where the
oracle stops at it with no row.
"""

import csv
import io
import math
import operator
from itertools import chain

import pytest

from mmwprop.datasets import (
    _BLOCK_ROWS,
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
from mmwprop.scattering import ScatterPatternPoint

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


# Texts that are equal as floats but not as text, among them both zeros;
# zeros only where a record takes them.
_EQUAL_AS_FLOATS = ["-0.0", "0.0", "0", "0e0", "-0", "1", "1.0", "1e0", " 1.0"]
_EQUAL_AS_POSITIVE_FLOATS = ["1", "1.0", "1e0", " 1.0"]
_POSITIVE = {"freq_hz", "distance_m", "path_loss_db", "incident_angle_deg"}
_NON_FINITE = ["nan", "inf", "-inf", "1e400"]
_POOL_CELLS = {
    "tx_id": ["tx1", "tx2", "a b"],
    "rx_id": ["rx1", "rx2", "rx,3"],
    "environment": ["LOS", "NLOS"],
    "tx_pol": ["V", "H"],
    "rx_pol": ["V", "H"],
}


@st.composite
def pooled_csv(draw, columns, numeric):
    """CSV text whose cells come from a pool of one to three texts per
    column, so a block's columns repeat their cells. A numeric pool mixes
    texts that are equal as floats (``-0.0``, ``0``, ``1e0``, ...) and, now
    and then, a non-finite one."""
    header = list(draw(st.permutations(columns)))
    pools = {}
    for name in header:
        if name in numeric:
            cells = [st.sampled_from(_EQUAL_AS_POSITIVE_FLOATS if name in _POSITIVE
                                     else _EQUAL_AS_FLOATS), _CELLS[name]]
            if draw(st.integers(0, 9)) == 0:
                cells.append(st.sampled_from(_NON_FINITE))
        else:
            cells = [st.sampled_from(_POOL_CELLS[name])]
        pools[name] = draw(st.lists(st.one_of(cells), min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.tuples(*(st.sampled_from(pools[name]) for name in header)),
                         min_size=1, max_size=12))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


def _signs(records):
    """The sign of every float field; ``==`` alone takes -0.0 for 0.0."""
    return [math.copysign(1, v) for record in records for v in record if type(v) is float]


@pytest.mark.parametrize("schema", SCHEMAS)
@hypothesis.settings(max_examples=150)
@hypothesis.given(data=st.data())
def test_repeated_cells_agree_with_dictreader_oracle(schema, data, csv_path):
    """Blocks whose columns repeat texts, some equal only as floats, load as
    the oracle loads them, field for field and zero for signed zero."""
    columns, numeric, load, oracle = SCHEMAS[schema]
    text = data.draw(pooled_csv(columns, numeric), label="csv")
    csv_path.write_text(text, encoding="utf-8", newline="")
    got, want = outcome(load, csv_path), outcome(oracle, csv_path)
    assert got == want
    if isinstance(want, list):
        assert _signs(got) == _signs(want)


def test_a_block_converts_each_distinct_text_once(csv_path):
    """In a directional sweep every link repeats its frequency, ids, distance
    and pointings. Each (block, column, text) is one object, shared by every
    record of the block that has that text, and no two texts share one."""
    rows = []
    for link in range(3 * _BLOCK_ROWS // 36 + 1):
        for pointing in range(36):
            rows.append(["142e9", f"TX{link // 4}", f"RX{link:03d}", f"{2 + link % 9}.5",
                         ("LOS", "NLOS")[link % 2], f"{pointing // 6 * 60}", "0.0",
                         f"{pointing % 6 * 60}", ("-0.0", "0.0", "0")[link % 3], "V", "H",
                         f"{90 + len(rows) * 0.01:.2f}"])
    rows = rows[:3 * _BLOCK_ROWS]
    csv_path.write_text("\n".join(map(",".join, [PATH_LOSS_COLUMNS, *rows])) + "\n",
                        encoding="utf-8", newline="")
    records, expected = load_path_loss_csv(csv_path), oracle_path_loss(csv_path)
    assert records == expected
    assert _signs(records) == _signs(expected)
    as_read = [k for k, c in enumerate(PATH_LOSS_COLUMNS)
               if c not in ("environment", "tx_pol", "rx_pol")]  # not mapped to enum members
    texts = sum(len({row[k] for row in rows[b:b + _BLOCK_ROWS]})
                for b in range(0, len(rows), _BLOCK_ROWS) for k in as_read)
    assert len({id(record[k]) for record in records for k in as_read}) == texts
    assert texts < len(rows) * len(as_read) // 4  # the sweep repeats most of its cells


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
    if error is InvariantViolationError:  # the oracle passes the absent cell on as None
        with pytest.raises(InvariantViolationError):
            oracle_path_loss(path)


def test_columns_follow_the_sample_fields():
    """The loaders build samples positionally, in column order, and the
    pattern columns are written out apart from their record."""
    assert PATH_LOSS_COLUMNS == PathLossSample._fields
    assert REFLECTION_COLUMNS == ReflectionSample._fields
    assert PATTERN_COLUMNS == ScatterPatternPoint._fields


_ID_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
                   min_size=1, max_size=6)
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


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


_POSITIVE = (_finite(min_value=0.0, exclude_min=True), _finite(max_value=0.0))
_FREE = (_finite(), None)
_POLARIZATION = (st.sampled_from(["V", "H"]), st.sampled_from(["v", "X", "", "V "]))
# Per field, (cells that __new__ accepts, cells it rejects or None), in the
# form the reader hands a column builder: finite floats and str text.
_BUILDER_CELLS = {
    PathLossSample: (
        _POSITIVE, (_ID_TEXT, st.just("")), (_ID_TEXT, st.just("")),
        (_finite(min_value=1.0), _finite(max_value=1.0, exclude_max=True)),
        (st.sampled_from(["LOS", "NLOS"]), st.sampled_from(["NLOS_BEST", "los", "", "X"])),
        _FREE, _FREE, _FREE, _FREE, _POLARIZATION, _POLARIZATION, _POSITIVE),
    ReflectionSample: (
        _POSITIVE,
        (_finite(min_value=0.0, max_value=90.0, exclude_min=True, exclude_max=True),
         st.one_of(_finite(max_value=0.0), _finite(min_value=90.0))),
        (_finite(min_value=0.0), _finite(max_value=0.0, exclude_max=True))),
}


def _breakable_fields():
    for record, fields in _BUILDER_CELLS.items():
        for k, (_, invalid) in enumerate(fields):
            if invalid is not None:
                yield pytest.param(record, k, id=f"{record.__name__}-{record._fields[k]}")


@pytest.mark.parametrize("record, broken", _breakable_fields())
@hypothesis.settings(max_examples=25)
@hypothesis.given(data=st.data())
def test_column_builder_refuses_exactly_the_blocks_with_a_bad_row(record, broken, data):
    """Up to a block of valid rows, a few of which get a rejected cell in one
    field. The records built column-wise are its rows' records, field for
    field the same objects (enum members included), and a block of valid rows
    is never refused, so a valid file never falls back to the per-row loop."""
    fields = _BUILDER_CELLS[record]
    rows = data.draw(st.lists(st.tuples(*(valid for valid, _ in fields)).map(list),
                              min_size=1, max_size=_BLOCK_ROWS), label="rows")
    for row in data.draw(st.lists(st.sampled_from(rows), max_size=2), label="broken rows"):
        row[broken] = data.draw(fields[broken][1], label="rejected cell")
    try:
        expected = [record(*row) for row in rows]
    except InvariantViolationError:
        expected = None
    try:
        built = record._from_columns(*zip(*rows))
    except InvariantViolationError:
        built = None
    assert (built is None) == (expected is None)
    if built is not None:
        assert built == expected
        assert [type(r) for r in built] == [record] * len(rows)
        assert all(map(operator.is_, chain(*built), chain(*expected)))


@pytest.mark.parametrize("record", _BUILDER_CELLS, ids=lambda record: record.__name__)
def test_a_valid_file_is_built_without_the_per_row_loop(record, csv_path, monkeypatch):
    if record is PathLossSample:
        text, load = _block_file(3 * _BLOCK_ROWS + 5, {}), load_path_loss_csv
    else:
        text = "\n".join([",".join(REFLECTION_COLUMNS)] + [
            f"142e9,{1 + i % 88},{i % 40 * 0.25}" for i in range(3 * _BLOCK_ROWS + 5)])
        load = load_reflection_csv
    csv_path.write_text(text, encoding="utf-8", newline="")
    expected = load(csv_path)

    def per_row(cls, *cells):
        raise AssertionError("a valid row went through __new__")

    monkeypatch.setattr(record, "__new__", per_row)
    assert load(csv_path) == expected


# Files of about three blocks, for the block reader's boundaries. rx_id comes
# last, so a row one cell short stops before a text cell.
_B = _BLOCK_ROWS
_BLOCK_COLUMNS = [c for c in PATH_LOSS_COLUMNS if c != "rx_id"] + ["rx_id"]
_DEFECTS = {
    "bad number": {"path_loss_db": "abc"},
    "inf": {"tx_az_deg": "inf"},
    "nan": {"freq_hz": "nan"},
    "short row": "short",
    "invariant": {"distance_m": "0.5"},
}


def _block_file(rows, defects):
    """CSV text of ``rows`` data rows with blank lines mixed in; ``defects``
    maps a data row (1-based) to the cells it replaces, or to "short"."""
    lines = [",".join(_BLOCK_COLUMNS)]
    for i in range(1, rows + 1):
        cells = {"freq_hz": "142e9", "tx_id": f"tx{i % 3}", "rx_id": f"rx{i}",
                 "distance_m": f"{1.5 + i % 20}", "environment": ("LOS", "NLOS")[i % 2],
                 "tx_az_deg": f"{i % 36 * 10}", "tx_el_deg": "0", "rx_az_deg": f"{-i % 7}",
                 "rx_el_deg": "0.5", "tx_pol": "VH"[i % 2], "rx_pol": "V",
                 "path_loss_db": f"{80 + i * 0.25}"}
        defect = defects.get(i, {})
        if defect != "short":
            cells.update(defect)
        line = [cells[c] for c in _BLOCK_COLUMNS]
        if defect == "short":
            line.pop()
        if i % 5 == 0:
            lines.append("")
        lines.append(",".join(line))
    return "\n".join(lines + ["", ""])


def _block_cases():
    for rows in (3 * _B, 3 * _B + 5):
        yield rows, {}
        for at in (1, _B, _B + 1, 2 * _B, rows):
            for defect in _DEFECTS.values():
                yield rows, {at: defect}
            if at + 2 <= rows:  # two bad rows in one block: the earlier row wins
                yield rows, {at: _DEFECTS["invariant"], at + 2: _DEFECTS["bad number"]}
        # finite cells whose sum overflows: the block takes the per-row loop and loads
        yield rows, {_B + 3: {"path_loss_db": "1e308"}, _B + 4: {"path_loss_db": "1e308"}}


def test_block_boundaries_agree_with_the_oracle(csv_path):
    for rows, defects in _block_cases():
        text = _block_file(rows, defects)
        csv_path.write_text(text, encoding="utf-8", newline="")
        short = first_short_row(text, PATH_LOSS_COLUMNS, _PATH_LOSS_NUMERIC)
        expected = expected_outcome(outcome(oracle_path_loss, csv_path), short)
        assert outcome(load_path_loss_csv, csv_path) == expected, (rows, defects)


def test_block_boundary_outcomes_are_the_ones_meant(csv_path):
    """The cases above reach every block and fail where they should."""
    csv_path.write_text(_block_file(3 * _B + 5, {}), encoding="utf-8", newline="")
    assert len(load_path_loss_csv(csv_path)) == 3 * _B + 5
    csv_path.write_text(_block_file(3 * _B, {2 * _B: _DEFECTS["invariant"],
                                             2 * _B + 2: _DEFECTS["bad number"]}),
                        encoding="utf-8", newline="")
    with pytest.raises(InvariantViolationError, match=f"^data row {2 * _B}: distance_m"):
        load_path_loss_csv(csv_path)
    csv_path.write_text(_block_file(3 * _B, {3 * _B: "short"}), encoding="utf-8", newline="")
    with pytest.raises(InvariantViolationError,
                       match=f"^data row {3 * _B}: no cell for column 'rx_id'"):
        load_path_loss_csv(csv_path)
    csv_path.write_text(_block_file(3 * _B, {_B + 3: {"path_loss_db": "1e308"},
                                             _B + 4: {"path_loss_db": "1e308"}}),
                        encoding="utf-8", newline="")
    assert [s.path_loss_db for s in load_path_loss_csv(csv_path)[_B + 2:_B + 4]] == [1e308] * 2


# One fault of each kind at the ends of the first block and in the last row.
_BOUNDARY_DEFECTS = {
    "bad number": _DEFECTS["bad number"],
    "short row": "short",
    "bad enum text": {"environment": "NLOS_BEST"},
    "invariant": _DEFECTS["invariant"],
    "bad byte": {"tx_id": "tx\udcff"},  # written as the byte 0xff
}


def _write_block_file(path, text):
    path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")


@pytest.mark.parametrize("defect", _BOUNDARY_DEFECTS)
@pytest.mark.parametrize("at", [_B, _B + 1, 3 * _B + 5])
def test_one_fault_at_a_block_boundary(defect, at, csv_path):
    text = _block_file(3 * _B + 5, {at: _BOUNDARY_DEFECTS[defect]})
    _write_block_file(csv_path, text)
    if defect == "bad byte":  # the oracle stops at the byte, with no row
        with pytest.raises(UnicodeDecodeError, match=f": invalid byte in data row {at}$"):
            load_path_loss_csv(csv_path)
        return
    short = first_short_row(text, PATH_LOSS_COLUMNS, _PATH_LOSS_NUMERIC)
    expected = expected_outcome(outcome(oracle_path_loss, csv_path), short)
    assert expected[2] == at
    assert outcome(load_path_loss_csv, csv_path) == expected


@pytest.mark.parametrize("first, second", [("bad byte", "bad number"), ("bad number", "bad byte"),
                                           ("bad byte", "short row"), ("short row", "bad byte")])
@pytest.mark.parametrize("at", [_B - 1, _B])
def test_a_bad_byte_takes_its_place_in_row_order(first, second, at, csv_path):
    """Two faults a row or two apart, in one block or across a boundary, and
    in the first 8 KiB the file is decoded in or not: the earlier one wins."""
    _write_block_file(csv_path, _block_file(3 * _B + 5, {at: _BOUNDARY_DEFECTS[first],
                                                         at + 2: _BOUNDARY_DEFECTS[second]}))
    with pytest.raises((UnicodeDecodeError, MmwPropError), match=f"data row {at}\\b"):
        load_path_loss_csv(csv_path)
    _write_block_file(csv_path, _block_file(40, {3: _BOUNDARY_DEFECTS[first],
                                                 5: _BOUNDARY_DEFECTS[second]}))
    with pytest.raises((UnicodeDecodeError, MmwPropError), match="data row 3\\b"):
        load_path_loss_csv(csv_path)


def _bits(value):
    return value, math.copysign(1.0, value)


def test_every_float_is_the_float_of_its_cell_shared_or_not(csv_path):
    """tx_az_deg repeats a few texts equal as floats (shared per block);
    rx_az_deg repeats "-0.0" in a third of its rows among distinct texts, so
    more than half its texts are distinct (not shared); path_loss_db is all
    distinct. Each float is float(cell), signed zero included, and only a
    mostly repeated column shares its values."""
    zeros = ["-0.0", "0.0", "0", "-0", "0e0", "-0e0", "1", "1.0", "1e0", "5e-324"]
    rows = 3 * _B + 5
    text = _block_file(rows, {i: {"tx_az_deg": zeros[i % len(zeros)],
                                  "rx_az_deg": "-0.0" if i % 3 == 0 else f"{-i * 0.1:.17g}"}
                              for i in range(1, rows + 1)})
    _write_block_file(csv_path, text)
    records = load_path_loss_csv(csv_path)
    lines = [cells for cells in csv.reader(io.StringIO(text, newline="")) if cells]
    header, cells = lines[0], lines[1:]
    assert len(records) == len(cells) == rows
    for name in _PATH_LOSS_NUMERIC:
        k, column = header.index(name), PATH_LOSS_COLUMNS.index(name)
        assert [_bits(r[column]) for r in records] == [_bits(float(c[k])) for c in cells], name
    for b in range(0, rows, _B):
        block = records[b:b + _B]
        for name, shared in (("tx_az_deg", True), ("rx_az_deg", False), ("path_loss_db", False)):
            column = PATH_LOSS_COLUMNS.index(name)
            objects = len({id(r[column]) for r in block})
            texts = len({c[header.index(name)] for c in cells[b:b + _B]})
            assert objects == (texts if shared else len(block)), (b, name)
            if name == "rx_az_deg" and len(block) == _B:
                assert _B // 2 < texts < len(block)
