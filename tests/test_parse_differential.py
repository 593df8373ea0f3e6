"""Located parse errors of ``read_table`` against the per-row parser it replaced.

``reference_parse_table`` below is the per-row parser stkit shipped before
tables were read as columns: it builds one record per row from its own
``csv.reader`` call and stops at the first bad cell. It pins what the column
reader must raise on a malformed table (class, message, row and column) and
what it must return on a clean one. Random tables from
``conftest.random_table`` get one to three faults at random rows, and each is
also laid out plain (no quoted cell, so ``read_table`` splits it with
``str.split``) and with the features that need ``csv.reader``.
"""

import csv
import io
from dataclasses import fields
from datetime import datetime

import numpy as np
import pytest

from conftest import TABLE_GENERATOR_KINDS, random_table, random_usr_records
from stkit import atomic
from stkit.atomic import (
    _INT_RE,
    _LOCATION_COLUMN,
    _RECORD_TYPES,
    DYNA_TYPES,
    GEO_TYPES,
    MANDATORY_COLUMNS,
    REL_TYPES,
    DynaRecord,
    ExtRecord,
    GeoUnit,
    GridODRecord,
    GridRecord,
    ODRecord,
    RelationRecord,
    UserUnit,
    _coerce_scalar,
    _parse_coordinates,
    format_timestamp,
    parse_table,
    parse_timestamp,
    read_table,
    write_table,
)
from stkit.exceptions import (
    BadCoordinate,
    BadFieldValue,
    BadTimestamp,
    DuplicateId,
    MissingColumn,
    RaggedRow,
)
from stkit.synthetic import generate_synthetic

# -- the per-row reference parser ------------------------------------------------


def _parse_time_cell(cell: str, table: str, row: int, times: dict) -> datetime:
    """Parse a time cell, reusing ``times`` (cell -> datetime) across rows.

    Only good stamps enter ``times``, so a bad stamp fails at its first row.
    """
    dt = times.get(cell)
    if dt is None:
        try:
            dt = times[cell] = parse_timestamp(cell)
        except ValueError as exc:
            raise BadTimestamp(str(exc), table=table, row=row, column="time") from None
    return dt


def _parse_enum_cell(cell, domain, table, row, column):
    if cell not in domain:
        raise BadFieldValue(
            f"value {cell!r} not in {domain}", table=table, row=row, column=column
        )
    return cell


def _parse_index_cell(cell, table, row, column) -> int:
    if not _INT_RE.fullmatch(cell) or int(cell) < 0:
        raise BadFieldValue(
            f"expected a non-negative integer, got {cell!r}",
            table=table,
            row=row,
            column=column,
        )
    return int(cell)


def _parse_id_cell(cell, table, row, column) -> str:
    if cell == "":
        raise BadFieldValue(
            "identifier cell is empty", table=table, row=row, column=column
        )
    return cell


def reference_parse_table(kind, source) -> list:
    """Parse one table of the given kind from bytes, text, or a file object.

    Returns a list of record dataclasses in file order. Raises a located
    :class:`~stkit.exceptions.ParseError` subclass on the first malformed
    cell: missing or misordered mandatory columns, ragged rows, bad
    timestamps, bad coordinates, out-of-domain enum values, negative grid
    indices, or duplicated primary identifiers.
    """
    if kind not in MANDATORY_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    text = source.read() if hasattr(source, "read") else source
    text = text.decode("utf-8") if isinstance(text, bytes) else text
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise MissingColumn("table has no header row", table=kind)
    header = rows[0]
    mandatory = MANDATORY_COLUMNS[kind]
    if tuple(header[: len(mandatory)]) != mandatory:
        raise MissingColumn(
            f"header must start with {list(mandatory)}, got {header[: len(mandatory)]}",
            table=kind,
        )
    n_fixed = len(mandatory)
    has_location = False
    if kind == "dyna" and len(header) > n_fixed and header[n_fixed] == _LOCATION_COLUMN:
        has_location = True
        n_fixed += 1
    prop_names = header[n_fixed:]
    for i, name in enumerate(prop_names):  # the first property at fault is named
        if name in mandatory or name == _LOCATION_COLUMN:
            raise MissingColumn(f"property {name!r} is a reserved {kind} column", table=kind)
        if name in prop_names[:i]:
            raise MissingColumn(f"property {name!r} is repeated", table=kind)

    records = []
    seen_ids: set = set()
    times: dict[str, datetime] = {}
    builder = _ROW_BUILDERS[kind]
    for ordinal, row in enumerate(rows[1:], start=1):
        if not row:
            continue  # ignore blank trailing lines
        if len(row) != len(header):
            raise RaggedRow(
                f"row has {len(row)} cells, header has {len(header)}",
                table=kind,
                row=ordinal,
            )
        props = {
            name: _coerce_scalar(cell) for name, cell in zip(prop_names, row[n_fixed:])
        }
        record = builder(row, props, ordinal, has_location, times)
        key = _identity_key(kind, record)
        if key in seen_ids:
            raise DuplicateId(
                f"identifier {key!r} already used",
                table=kind,
                row=ordinal,
                column=mandatory[0],
            )
        seen_ids.add(key)
        records.append(record)
    return records


def _identity_key(kind: str, record):
    # .ext identity is (ext_id, time): one row per context source per stamp.
    if kind == "ext":
        return (record.ext_id, format_timestamp(record.time))
    return getattr(record, f"{kind}_id" if kind in ("geo", "usr", "rel") else "dyna_id")


def _build_geo(row, props, ordinal, *_):
    geo_id = _parse_id_cell(row[0], "geo", ordinal, "geo_id")
    geo_type = _parse_enum_cell(row[1], GEO_TYPES, "geo", ordinal, "type")
    coords = _parse_coordinates(row[2], geo_type, "geo", ordinal)
    return GeoUnit(geo_id, geo_type, coords, props)


def _build_usr(row, props, ordinal, *_):
    return UserUnit(_parse_id_cell(row[0], "usr", ordinal, "usr_id"), props)


def _build_rel(row, props, ordinal, *_):
    return RelationRecord(
        _parse_id_cell(row[0], "rel", ordinal, "rel_id"),
        _parse_enum_cell(row[1], REL_TYPES, "rel", ordinal, "type"),
        _parse_id_cell(row[2], "rel", ordinal, "origin_id"),
        _parse_id_cell(row[3], "rel", ordinal, "des_id"),
        props,
    )


def _build_dyna(row, props, ordinal, has_location, times):
    location = None
    if has_location and row[4] != "":
        location = row[4]
    return DynaRecord(
        _parse_id_cell(row[0], "dyna", ordinal, "dyna_id"),
        _parse_enum_cell(row[1], DYNA_TYPES, "dyna", ordinal, "type"),
        _parse_time_cell(row[2], "dyna", ordinal, times),
        _parse_id_cell(row[3], "dyna", ordinal, "entity_id"),
        location,
        props,
    )


def _build_grid(row, props, ordinal, _, times):
    return GridRecord(
        _parse_id_cell(row[0], "grid", ordinal, "dyna_id"),
        _parse_enum_cell(row[1], ("state",), "grid", ordinal, "type"),
        _parse_time_cell(row[2], "grid", ordinal, times),
        _parse_index_cell(row[3], "grid", ordinal, "row_id"),
        _parse_index_cell(row[4], "grid", ordinal, "col_id"),
        props,
    )


def _build_od(row, props, ordinal, _, times):
    return ODRecord(
        _parse_id_cell(row[0], "od", ordinal, "dyna_id"),
        _parse_enum_cell(row[1], ("state",), "od", ordinal, "type"),
        _parse_time_cell(row[2], "od", ordinal, times),
        _parse_id_cell(row[3], "od", ordinal, "origin_id"),
        _parse_id_cell(row[4], "od", ordinal, "des_id"),
        props,
    )


def _build_gridod(row, props, ordinal, _, times):
    return GridODRecord(
        _parse_id_cell(row[0], "gridod", ordinal, "dyna_id"),
        _parse_enum_cell(row[1], ("state",), "gridod", ordinal, "type"),
        _parse_time_cell(row[2], "gridod", ordinal, times),
        _parse_index_cell(row[3], "gridod", ordinal, "origin_row_id"),
        _parse_index_cell(row[4], "gridod", ordinal, "origin_col_id"),
        _parse_index_cell(row[5], "gridod", ordinal, "des_row_id"),
        _parse_index_cell(row[6], "gridod", ordinal, "des_col_id"),
        props,
    )


def _build_ext(row, props, ordinal, _, times):
    return ExtRecord(
        _parse_id_cell(row[0], "ext", ordinal, "ext_id"),
        _parse_time_cell(row[1], "ext", ordinal, times),
        props,
    )


_ROW_BUILDERS = {
    "geo": _build_geo,
    "usr": _build_usr,
    "rel": _build_rel,
    "dyna": _build_dyna,
    "grid": _build_grid,
    "od": _build_od,
    "gridod": _build_gridod,
    "ext": _build_ext,
}




# -- fault injection ---------------------------------------------------------------

ID_COLUMNS = {
    "geo_id", "usr_id", "rel_id", "dyna_id", "ext_id", "entity_id", "origin_id", "des_id",
}
INDEX_COLUMNS = {
    "row_id", "col_id", "origin_row_id", "origin_col_id", "des_row_id", "des_col_id",
}
BAD_CELLS = {
    "time": ("yesterday", "2021-02-30T00:00:00Z", "2021-03-01T24:00:00Z",
             "2021-03-01 00:05:00Z", ""),
    "type": ("Blob", "", "State", "geo2geo"),
    "index": ("-1", "1.5", "one", "", "+-2"),
    "coordinates": ("not json", "[200.0,0.0]", "[0,95]", "[[0,0]]", '{"a":1}',
                    "[[0,0],[1,0],[1,1],[0,1]]", "[[0,0],[1,1]]", '["a","b"]'),
}


def inject(kind, rows, rng):
    """Apply one random fault to ``rows`` (header first) at a random data row.

    Faults: a bad stamp, an empty id, a repeated id, a bad type, a bad grid
    index, bad coordinates, a ragged row, or a blank line before the row.
    """
    i = int(rng.integers(1, len(rows)))
    row = rows[i]
    options = ["ragged", "blank", "duplicate"]
    for j, name in enumerate(MANDATORY_COLUMNS[kind]):
        if name in ID_COLUMNS:
            options.append(("empty_id", j))
        elif name in INDEX_COLUMNS:
            options.append(("index", j))
        elif name in BAD_CELLS:
            options.append((name, j))
    fault = options[int(rng.integers(len(options)))]
    if fault == "blank":
        rows.insert(i, [])
    elif not row:
        return  # a blank line inserted earlier
    elif fault == "ragged":
        if len(row) > 1 and rng.random() < 0.5:
            row.pop()
        else:
            row.append("x")
    elif fault == "duplicate":
        earlier = [r for r in rows[1:i] if r]
        if earlier:
            source = earlier[int(rng.integers(len(earlier)))]
            width = 2 if kind == "ext" else 1  # ext identity is (ext_id, time)
            row[:width] = source[:width]
    else:
        what, j = fault
        if j < len(row):
            choices = ("",) if what == "empty_id" else BAD_CELLS[what]
            row[j] = choices[int(rng.integers(len(choices)))]


def csv_text(rows, lineterminator="\n", quoting=csv.QUOTE_MINIMAL):
    out = io.StringIO()
    csv.writer(out, lineterminator=lineterminator, quoting=quoting).writerows(rows)
    return out.getvalue()


def plain(rows):
    """``rows`` with every character that needs a quote replaced, so that
    ``csv_text`` quotes no cell (but an empty cell alone on its row)."""
    table = str.maketrans({",": ";", '"': "'", "\n": " ", "\r": " "})
    return [[cell.translate(table) for cell in row] for row in rows]


def _at(rows, where):
    """The data row index at ``where`` (first, middle or last); 1 if none."""
    return {"first": 1, "middle": max(1, len(rows) // 2), "last": max(1, len(rows) - 1)}[where]


def _blank(where):
    def layout(rows, rng):
        return csv_text(rows[: _at(rows, where)] + [[]] + rows[_at(rows, where) :])

    return layout


def _ragged(where):
    def layout(rows, rng):
        rows = [list(row) for row in rows]
        row = rows[_at(rows, where)] if len(rows) > 1 else rows[0]
        if len(row) > 1 and rng.random() < 0.5:
            row.pop()
        else:
            row.append("x")
        return csv_text(rows)

    return layout


def _newline_in_quotes(rows, rng):
    rows = [list(row) for row in rows]
    row = rows[int(rng.integers(len(rows)))]
    if row:
        row[int(rng.integers(len(row)))] += "\nx"
    return csv_text(rows)


# Per layout: the text of a table's rows (header first). The first four are
# split by ``str.split`` when the rows are plain; every other needs csv.reader.
LAYOUTS = {
    "as_written": lambda rows, rng: csv_text(rows),
    "no_trailing_newline": lambda rows, rng: csv_text(rows).removesuffix("\n"),
    "header_only": lambda rows, rng: csv_text(rows[:1]),
    "header_only_no_newline": lambda rows, rng: csv_text(rows[:1]).removesuffix("\n"),
    "trailing_blank_line": lambda rows, rng: csv_text(rows) + "\n",
    "quoted": lambda rows, rng: csv_text(rows, quoting=csv.QUOTE_ALL),
    "crlf": lambda rows, rng: csv_text(rows, lineterminator="\r\n"),
    "newline_in_quotes": _newline_in_quotes,
    **{f"blank_{w}": _blank(w) for w in ("first", "middle", "last")},
    **{f"ragged_{w}": _ragged(w) for w in ("first", "middle", "last")},
}


def outcome(parse, kind, text):
    try:
        return "ok", parse(kind, text)
    except Exception as exc:
        located = (getattr(exc, a, None) for a in ("table", "row", "column"))
        return "error", (type(exc), str(exc), *located)


def random_rows(generator_kind, rng):
    kind, records = random_table(generator_kind, rng)
    text = write_table(kind, records).decode("utf-8")
    return kind, records, list(csv.reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("generator_kind", TABLE_GENERATOR_KINDS)
def test_located_errors_match_the_per_row_parser(generator_kind):
    rng = np.random.default_rng(sum(map(ord, generator_kind)))
    errors = set()
    for _ in range(150):
        kind, _, rows = random_rows(generator_kind, rng)
        for _ in range(int(rng.integers(1, 4))):
            inject(kind, rows, rng)
        text = csv_text(rows)
        got = outcome(parse_table, kind, text)
        assert got == outcome(reference_parse_table, kind, text), text
        if got[0] == "error":
            errors.add(got[1][0])
    assert {BadFieldValue, DuplicateId, RaggedRow} <= errors
    if "coordinates" in MANDATORY_COLUMNS[kind]:
        assert BadCoordinate in errors
    if "time" in MANDATORY_COLUMNS[kind]:
        assert BadTimestamp in errors


@pytest.mark.parametrize("generator_kind", TABLE_GENERATOR_KINDS)
def test_clean_tables_give_the_per_row_records(generator_kind):
    rng = np.random.default_rng(sum(map(ord, generator_kind)) + 1)
    for _ in range(40):
        kind, records, rows = random_rows(generator_kind, rng)
        if rng.random() < 0.5:
            rows.insert(int(rng.integers(1, len(rows) + 1)), [])
        text = csv_text(rows)
        table = read_table(kind, text)
        assert len(table) == len(records)
        assert reference_parse_table(kind, text) == records
        # The columns hold the records' values, before and after the records
        # are built (built records back the columns from then on).
        attrs = [f.name for f in fields(_RECORD_TYPES[kind])][:-1]
        expected = [[getattr(r, a) for r in records] for a in attrs]
        expected += [[r.properties[p] for r in records] for p in table.prop_names]
        for _ in range(2):
            got = [table.field(a).tolist() for a in attrs]
            assert got + [table.prop(p).tolist() for p in table.prop_names] == expected
            assert list(table) == records
        assert table == records and parse_table(kind, text) == records


def test_first_row_wins_then_header_order_then_the_repeat():
    header = "dyna_id,type,time,entity_id\n"
    good = "2021-03-01T00:00:00Z"
    cases = [
        # Row 2 has a bad type and a bad stamp: the type column comes first.
        ([f"d0,state,{good},g0", "d1,Blob,noon,g0"], BadFieldValue, 2, "type"),
        # A bad stamp at row 2 comes before a bad type at row 3.
        ([f"d0,state,{good},g0", "d1,state,noon,g0", f"d2,Blob,{good},g0"],
         BadTimestamp, 2, "time"),
        # The repeated id at row 2 is checked after its other cells.
        ([f"d0,state,{good},g0", f"d0,state,{good},"], BadFieldValue, 2, "entity_id"),
        ([f"d0,state,{good},g0", f"d0,state,{good},g1"], DuplicateId, 2, "dyna_id"),
        # Blank lines count: the bad row is row 3 of the file.
        ([f"d0,state,{good},g0", "", f"d1,Blob,{good},g0"], BadFieldValue, 3, "type"),
        # Rows before a ragged row are checked first.
        ([f"d0,state,{good},g0", "d1,state,noon,g0", "d2,state"], BadTimestamp, 2, "time"),
        ([f"d0,state,{good},g0", "d2,state", "d1,state,noon,g0"], RaggedRow, 2, None),
    ]
    for lines, cls, row, column in cases:
        text = header + "".join(line + "\n" for line in lines)
        with pytest.raises(cls) as err:
            read_table("dyna", text)
        assert (err.value.row, err.value.column) == (row, column)
        assert outcome(parse_table, "dyna", text) == outcome(
            reference_parse_table, "dyna", text
        )


def test_header_errors_match():
    for kind, text in (
        ("usr", ""),
        ("geo", "geo_id,coordinates\n"),
        ("usr", "usr_id,a,a\nu1,1,2\n"),
        ("dyna", "dyna_id,type,time,entity_id,location,location\n"),
    ):
        got = outcome(parse_table, kind, text)
        assert got[0] == "error" and got[1][0] is MissingColumn
        assert got == outcome(reference_parse_table, kind, text)


@pytest.mark.parametrize("generator_kind", TABLE_GENERATOR_KINDS)
def test_every_layout_matches_the_per_row_parser(generator_kind, monkeypatch):
    """The same random tables, clean or faulty, plain or laid out with quotes,
    CRLF, newlines in quotes, blank and ragged rows, header-only or without a
    final newline: both tokenizers run, and each gives the per-row parser's
    records or its located error."""
    calls = []
    csv_rows = atomic._csv_rows
    monkeypatch.setattr(atomic, "_csv_rows", lambda *a: calls.append(a) or csv_rows(*a))
    rng = np.random.default_rng(sum(map(ord, generator_kind)) + 2)
    took_csv_reader = set()
    for _ in range(20):
        kind, _, rows = random_rows(generator_kind, rng)
        if rng.random() < 0.5:
            inject(kind, rows, rng)
        for base in (rows, plain(rows)):
            for name, layout in LAYOUTS.items():
                text = layout(base, rng)
                before = len(calls)
                got = outcome(parse_table, kind, text)
                took_csv_reader.add(len(calls) > before)
                assert got == outcome(reference_parse_table, kind, text), (name, text)
    assert took_csv_reader == {True, False}


def test_single_column_tables_with_blank_lines():
    rng = np.random.default_rng(11)
    for _ in range(100):
        records = random_usr_records(rng, int(rng.integers(1, 6)), ())
        rows = [["usr_id"], *([r.usr_id] for r in records)]
        for _ in range(int(rng.integers(0, 4))):
            rows.insert(int(rng.integers(1, len(rows) + 1)), [])
        if rng.random() < 0.2:
            rows[int(rng.integers(1, len(rows)))] = [""]  # an empty id, quoted
        text = csv_text(rows)
        for text in (text, text + "\n", text.removesuffix("\n"), "\n" + text):
            got = outcome(parse_table, "usr", text)
            assert got == outcome(reference_parse_table, "usr", text), text


def test_plain_tables_skip_csv_reader(monkeypatch):
    """The synthetic dyna and grid tables are split with ``str.split``; a
    ``.geo``, whose coordinates are quoted, still goes through csv.reader."""
    graph = generate_synthetic("graph_flow", {"n_nodes": 3, "n_slots": 24}, seed=1).dataset
    grid = generate_synthetic("grid_flow", {"rows": 2, "cols": 3, "n_slots": 24}, seed=1)
    texts = {
        "dyna": write_table("dyna", graph.dyna),
        "grid": write_table("grid", grid.dataset.grid),
        "geo": write_table("geo", graph.geo),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", refuse)
    assert read_table("dyna", texts["dyna"]) == list(graph.dyna)
    assert read_table("grid", texts["grid"]) == list(grid.dataset.grid)
    with pytest.raises(AssertionError, match="csv.reader called"):
        read_table("geo", texts["geo"])


def test_unknown_geo_types_sharing_a_coordinates_cell():
    """Two rows with different unknown types share one coordinates cell, and
    a row with bad coordinates follows: each (type, coordinates) pair is
    checked once, and the error is the per-row parser's."""
    text = (
        "geo_id,type,coordinates\n"
        'g0,Blob,"[116.4,39.9]"\n'
        'g1,Disc,"[116.4,39.9]"\n'
        'g2,Point,"[116.4,95.0]"\n'
    )
    got = outcome(parse_table, "geo", text)
    assert got == outcome(reference_parse_table, "geo", text)
    assert got[1][0] is BadFieldValue and got[1][3:] == (1, "type")
    # Without the unknown types, the bad coordinates are the first error.
    fixed = text.replace("Blob", "Point").replace("Disc", "Point")
    got = outcome(parse_table, "geo", fixed)
    assert got == outcome(reference_parse_table, "geo", fixed)
    assert got[1][0] is BadCoordinate and got[1][3:] == (3, "coordinates")


def test_ext_stamps_in_other_scripts_digits_are_located():
    """Only ASCII digits spell a stamp, so one instant has one spelling: a
    stamp in full-width digits fails at its row, not as a repeat of the
    instant before it."""
    text = "ext_id,time\nx0,2024-01-01T00:00:00Z\nx0,２０２４-01-01T00:00:00Z\n"
    got = outcome(parse_table, "ext", text)
    assert got == outcome(reference_parse_table, "ext", text)
    assert got[1][0] is BadTimestamp and got[1][3:] == (2, "time")
