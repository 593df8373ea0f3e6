"""Read columns keep their codes in the narrowest unsigned dtype that holds
their value count: uint8, uint16 or uint32.

Columns with 255, 256, 65,535 and 65,536 distinct values, whose new values
are first met after the first chunk, are read with narrow codes and again
with every code in ``np.intp``, as they were before codes were narrowed. The
two must hold equal values and equal codes (as ints), and so must what
``_pairs`` (geo type x coordinates, ext id x time), ``Table.take``,
``Table.select`` and ``write_table`` make of them. A code is each cell's
rank in order of first appearance.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from stkit import atomic
from stkit.atomic import _pairs, read_table, write_table

COUNTS = (255, 256, 65_535, 65_536)
T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def code_dtype(count: int) -> type:
    """The codes' dtype of a column of ``count`` values."""
    return np.uint8 if count < 256 else np.uint16 if count < 65_536 else np.uint32


def stamp(slot: int) -> str:
    return (T0 + timedelta(minutes=5 * slot)).isoformat().replace("+00:00", "Z")


def ext_text(count: int) -> str:
    """An ext table of ``count`` + 197 rows. The first 200 cycle over three
    ids and three property values, with a new time every third row; the rest
    bring the other ids, one each, at five times. ``ext_id`` and ``note``
    end with ``count`` distinct values, and every (ext_id, time) is new."""
    rows = [f"x{i % 3},{stamp(i // 3)},n{(i + 1) % 3}" for i in range(200)]
    rows += [f"x{k},{stamp(k % 5)},n{k}" for k in range(3, count)]
    return "\n".join(["ext_id,time,note", *rows]) + "\n"


def geo_text(count: int) -> str:
    """A geo table of ``count`` distinct points and one line, quoted, so
    csv.reader reads it whole."""
    rows = [f'g{k},Point,"[{k % 1000 / 8 - 60},{k // 1000 / 8 - 10}]"' for k in range(count)]
    rows.append('line,LineString,"[[0.5,0.25],[1.5,1.25]]"')
    return "\n".join(["geo_id,type,coordinates", *rows]) + "\n"


def first_appearance(cells: list) -> list[int]:
    index: dict = {}
    return [index.setdefault(cell, len(index)) for cell in cells]


def columns(table) -> dict:
    return {**table._fields, **table._props}


def as_ints(column) -> tuple[list, list]:
    return column.codes.tolist(), column.values


@pytest.fixture
def read_both(monkeypatch):
    """``read(kind, text)``: the table read with a chunk of 1 KiB, with
    narrow codes and with every code an ``np.intp``."""

    def read(kind, text):
        with monkeypatch.context() as m:
            m.setattr(atomic, "_CHUNK", 1 << 10)
            narrow = read_table(kind, text)
            m.setattr(atomic, "_code_type", lambda n: np.dtype(np.intp))
            wide = read_table(kind, text)
        return narrow, wide

    return read


def same_tables(narrow, wide) -> None:
    assert columns(narrow).keys() == columns(wide).keys()
    for name, column in columns(narrow).items():
        assert column.codes.dtype.kind == "u", name
        assert as_ints(column) == as_ints(columns(wide)[name]), name
    assert write_table(narrow.kind, narrow) == write_table(wide.kind, wide)


@pytest.mark.parametrize("count", COUNTS)
def test_ext_columns_read_alike_narrow_and_wide(count, read_both):
    text = ext_text(count)
    narrow, wide = read_both("ext", text)
    cells = [line.split(",") for line in text.splitlines()[1:]]
    for j, name in enumerate(("ext_id", "time", "note")):
        column = columns(narrow)[name]
        assert column.codes.tolist() == first_appearance([row[j] for row in cells]), name
    assert narrow.field("ext_id").codes.dtype == code_dtype(count)
    assert narrow.prop("note").codes.dtype == code_dtype(count)
    assert narrow.field("time").codes.dtype == np.uint8  # 200 // 3 + 1 = 67 times
    same_tables(narrow, wide)
    assert write_table("ext", narrow) == text.encode("utf-8")

    ids = _pairs(narrow.field("ext_id"), narrow.field("time"))
    assert ids.codes.dtype == code_dtype(len(narrow))
    assert as_ints(ids) == as_ints(_pairs(wide.field("ext_id"), wide.field("time")))
    assert len(ids.values) == len(narrow)

    rows = np.random.default_rng(count).integers(0, len(narrow), 500)
    keep = np.random.default_rng(count + 1).random(len(narrow)) < 0.3
    for derived in (lambda t: t.take(rows), lambda t: t.select(keep)):
        same_tables(derived(narrow), derived(wide))


@pytest.mark.parametrize("count", COUNTS)
def test_geo_shapes_pair_alike_narrow_and_wide(count, read_both):
    narrow, wide = read_both("geo", geo_text(count))
    assert narrow.field("geo_type").codes.dtype == np.uint8
    assert narrow.field("coordinates").codes.dtype == code_dtype(count + 1)
    same_tables(narrow, wide)
    shapes = _pairs(narrow.field("geo_type"), narrow.field("coordinates"))
    assert as_ints(shapes) == as_ints(_pairs(wide.field("geo_type"), wide.field("coordinates")))
    assert shapes.codes.tolist() == list(range(count + 1))
    last = len(narrow) - 1
    assert shapes.at(last) == ("LineString", ((0.5, 0.25), (1.5, 1.25)))
    rows = np.arange(last, -1, -97)
    same_tables(narrow.take(rows), wide.take(rows))
