"""Tables as columns: records built on demand, and the writer against an oracle."""

import csv
import io
import json
from dataclasses import fields
from datetime import timedelta, timezone

import numpy as np
import pytest

from conftest import TABLE_GENERATOR_KINDS, random_table, ts
from stkit.atomic import (
    MANDATORY_COLUMNS,
    _MISSING,
    DynaRecord,
    GeoUnit,
    Table,
    format_timestamp,
    read_table,
    write_table,
)


# -- the per-kind writer that write_table replaced, kept as an oracle ---------------


def oracle_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid property value")
    return repr(value) if isinstance(value, float) else str(value)


def oracle_coordinates(record) -> str:
    if record.geo_type == "Point":
        payload = list(record.coordinates[0])
    else:
        payload = [list(p) for p in record.coordinates]
    return json.dumps(payload, separators=(",", ":"))


def oracle_mandatory_cells(kind, record, has_location):
    if kind == "geo":
        return [record.geo_id, record.geo_type, oracle_coordinates(record)]
    if kind == "usr":
        return [record.usr_id]
    if kind == "rel":
        return [record.rel_id, record.rel_type, record.origin_id, record.des_id]
    if kind == "dyna":
        cells = [
            record.dyna_id,
            record.dyna_type,
            format_timestamp(record.time),
            record.entity_id,
        ]
        if has_location:
            cells.append(record.location if record.location is not None else "")
        return cells
    if kind == "grid":
        return [
            record.dyna_id,
            record.dyna_type,
            format_timestamp(record.time),
            str(record.row_id),
            str(record.col_id),
        ]
    if kind == "od":
        return [
            record.dyna_id,
            record.dyna_type,
            format_timestamp(record.time),
            record.origin_id,
            record.des_id,
        ]
    if kind == "gridod":
        return [
            record.dyna_id,
            record.dyna_type,
            format_timestamp(record.time),
            str(record.origin_row_id),
            str(record.origin_col_id),
            str(record.des_row_id),
            str(record.des_col_id),
        ]
    if kind == "ext":
        return [record.ext_id, format_timestamp(record.time)]
    raise ValueError(f"unknown table kind {kind!r}")


def oracle_write_table(kind, records) -> bytes:
    records = list(records)
    header = list(MANDATORY_COLUMNS[kind])
    has_location = kind == "dyna" and any(r.location is not None for r in records)
    if has_location:
        header.append("location")
    prop_names = tuple(records[0].properties) if records else ()
    header.extend(prop_names)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        assert tuple(record.properties) == prop_names
        cells = oracle_mandatory_cells(kind, record, has_location)
        cells.extend(oracle_cell(record.properties[k]) for k in prop_names)
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("generator_kind", TABLE_GENERATOR_KINDS)
def test_write_table_bytes_equal_the_oracle(generator_kind):
    rng = np.random.default_rng(sum(map(ord, generator_kind)) + 2)
    seen = set()
    for _ in range(40):
        kind, records = random_table(generator_kind, rng)
        expected = oracle_write_table(kind, records)
        assert write_table(kind, records) == expected
        assert write_table(kind, Table.from_records(kind, records)) == expected
        assert write_table(kind, read_table(kind, expected)) == expected
        if kind == "dyna":
            seen.add(any(r.location is not None for r in records))
        if kind == "geo":
            seen.update(r.geo_type for r in records)
    if generator_kind == "dyna_trajectory":
        assert seen == {True, False}  # with and without a location column
    if generator_kind == "geo":
        assert seen == {"Point", "LineString", "Polygon"}


def test_equal_instants_in_other_offsets_write_as_utc():
    t = ts(3)
    shifted = t.astimezone(timezone(timedelta(hours=5)))  # equal to t, and hashes so
    records = [DynaRecord(f"d{i}", "state", s, "g0") for i, s in enumerate([shifted, t])]
    assert write_table("dyna", records) == oracle_write_table("dyna", records)


# -- records from columns ----------------------------------------------------------


def exact(record):
    """A record with each value's type and sign visible: 1 != 1.0, -0.0 != 0.0."""
    attrs = {k: repr(v) for k, v in vars(record).items() if k != "properties"}
    return type(record), attrs, sorted((k, repr(v)) for k, v in record.properties.items())


MIXED = [
    DynaRecord("d0", "state", ts(0), "g0", None, {"a": -0.0, "b": 1}),
    DynaRecord("d1", "state", ts(1), "g1", "x", {"a": 0.0, "b": 1.0}),
    DynaRecord("d2", "trajectory", ts(1), "g0", None, {"a": None}),
    DynaRecord("d3", "state", ts(2), "g2", None, {"c": "x", "a": 1}),
    DynaRecord("d4", "state", ts(0), "g0", "y", {}),
]


def test_from_records_gives_back_the_records():
    table = Table.from_records("dyna", MIXED)
    want = [exact(r) for r in MIXED]
    assert [exact(r) for r in table] == want
    assert [exact(table[i]) for i in range(len(MIXED))] == want
    assert [exact(table[i - len(MIXED)]) for i in range(len(MIXED))] == want
    assert exact(table[-1]) == want[-1]
    for piece in (slice(1, 3), slice(None, None, -2), slice(4, 1), slice(-2, None)):
        assert [exact(r) for r in table[piece]] == want[piece]
    for bad in (len(MIXED), -len(MIXED) - 1):
        with pytest.raises(IndexError):
            table[bad]
    keep = np.array([True, False, True, True, False])
    assert [exact(r) for r in table.select(keep)] == [w for w, k in zip(want, keep) if k]
    assert table == MIXED


def test_property_columns_are_the_union_of_the_record_keys():
    table = Table.from_records("dyna", MIXED)
    assert table.prop_names == ("a", "b", "c")
    assert table.prop("c").tolist() == [_MISSING, _MISSING, _MISSING, "x", _MISSING]
    assert [repr(v) for v in table.prop("b").tolist()] == [
        "1", "1.0", repr(_MISSING), repr(_MISSING), repr(_MISSING)
    ]
    assert table.prop("absent").tolist() == [_MISSING] * len(MIXED)
    assert table.field("location").tolist() == [None, "x", None, None, "y"]


def test_changing_a_record_leaves_the_table_as_it_was():
    text = write_table("geo", [
        GeoUnit("g0", "Point", ((1.0, 2.0),), {"p": 1}),
        GeoUnit("g1", "LineString", ((1.0, 2.0), (3.0, 4.0)), {"p": "s"}),
    ])
    records = [DynaRecord(f"d{i}", "state", ts(i), "g0", None, {"v": i}) for i in range(3)]
    for table in (read_table("geo", text), Table.from_records("dyna", records)):
        before = [exact(r) for r in table]
        first = table[0]
        first.properties["new"] = 1
        first.properties.clear()
        setattr(first, fields(first)[0].name, "zz")
        for record in table:
            record.properties["p"] = None
        assert [exact(r) for r in table] == before
    # Changing the records a table was made from leaves it as it was, too.
    table = Table.from_records("dyna", records)
    before = [exact(r) for r in table]
    records[0].properties["v"] = 99
    records[1].dyna_id = "zz"
    assert [exact(r) for r in table] == before


def test_select_keeps_file_row_numbers():
    text = (
        "usr_id,n\n"
        "u0,0\n"
        "\n"
        "u1,1\n"
        "u2,2\n"
        "\n"
        "u3,3\n"
    )
    table = read_table("usr", text)
    assert [table.ordinal(i) for i in range(len(table))] == [1, 3, 4, 6]
    odd = table.select(np.array([False, True, False, True]))
    assert [r.usr_id for r in odd] == ["u1", "u3"]
    assert [odd.ordinal(i) for i in range(len(odd))] == [3, 6]
    last = odd.select(np.array([False, True]))
    assert [last.ordinal(0)] == [6] and last[0].properties == {"n": 3}
    listed = Table.from_records("usr", list(table)).select(np.array([0, 1, 1, 0], bool))
    assert [listed.ordinal(i) for i in range(len(listed))] == [2, 3]
    assert [r.usr_id for r in listed] == ["u1", "u2"]
