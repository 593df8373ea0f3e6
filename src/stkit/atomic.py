"""Readers, writers, and record types for the suffixed CSV table family.

Eight table kinds share one on-disk convention. Each is a UTF-8, RFC-4180
CSV file with a mandatory header. The leading columns are fixed per kind and
must appear in order; any further columns are free-form properties shared by
every row of the table:

========  =====================================================================
suffix    mandatory columns
========  =====================================================================
.geo      geo_id, type, coordinates
.usr      usr_id
.rel      rel_id, type, origin_id, des_id
.dyna     dyna_id, type, time, entity_id  (+ optional ``location`` column when
          the table stores trajectories)
.grid     dyna_id, type, time, row_id, col_id
.od       dyna_id, type, time, origin_id, des_id
.gridod   dyna_id, type, time, origin_row_id, origin_col_id, des_row_id,
          des_col_id
.ext      ext_id, time
========  =====================================================================

Timestamps are ISO-8601 UTC with a trailing ``Z`` (``2020-01-01T00:00:00Z``).
Coordinates are a JSON array in one quoted cell: a flat ``[lon,lat]`` pair for
points, a list of pairs for lines, and a closed ring of pairs for polygons.
Longitude and latitude use the WGS84 ranges [-180, 180] and [-90, 90].

Property cells hold ``None`` (empty cell), int, float, or str. Writing a
table and parsing it back reproduces the records exactly, provided property
values are canonical (finite floats, ints within exact float range, strings
that do not themselves look numeric).

:func:`read_table` reads a table as dictionary-encoded columns into a
:class:`Table`, which keeps only those columns and builds a record each time
one is asked for; :func:`parse_table` returns the records as a list. A table
with no quoted cell is split with ``str.split`` and encoded chunk by chunk; a
quoted one, such as every ``.geo`` table, goes through ``csv.reader``.
:func:`write_table` writes a table from its columns; it takes a ``Table``
or a record list, which :meth:`Table.from_records` puts behind the same
columns.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from itertools import count, filterfalse, repeat
from typing import IO, Iterable, NamedTuple, Union

import numpy as np

from .exceptions import (
    BadCoordinate,
    BadEncoding,
    BadFieldValue,
    BadTimestamp,
    DuplicateId,
    MissingColumn,
    ParseError,
    RaggedRow,
)

__all__ = [
    "TABLE_KINDS",
    "MANDATORY_COLUMNS",
    "GEO_TYPES",
    "REL_TYPES",
    "DYNA_TYPES",
    "Scalar",
    "GeoUnit",
    "UserUnit",
    "RelationRecord",
    "DynaRecord",
    "GridRecord",
    "ODRecord",
    "GridODRecord",
    "ExtRecord",
    "parse_timestamp",
    "format_timestamp",
    "Column",
    "Table",
    "NUMBER", "EMPTY", "MISSING", "TEXT", "HUGE",
    "as_table",
    "read_table",
    "parse_table",
    "write_table",
]

Scalar = Union[None, int, float, str]

TABLE_KINDS = ("geo", "usr", "rel", "dyna", "grid", "od", "gridod", "ext")

MANDATORY_COLUMNS = {
    "geo": ("geo_id", "type", "coordinates"),
    "usr": ("usr_id",),
    "rel": ("rel_id", "type", "origin_id", "des_id"),
    "dyna": ("dyna_id", "type", "time", "entity_id"),
    "grid": ("dyna_id", "type", "time", "row_id", "col_id"),
    "od": ("dyna_id", "type", "time", "origin_id", "des_id"),
    "gridod": (
        "dyna_id",
        "type",
        "time",
        "origin_row_id",
        "origin_col_id",
        "des_row_id",
        "des_col_id",
    ),
    "ext": ("ext_id", "time"),
}

GEO_TYPES = ("Point", "LineString", "Polygon")
REL_TYPES = ("geo", "usr", "usr2geo")
DYNA_TYPES = ("state", "trajectory")

# Optional column allowed right after entity_id in trajectory .dyna tables.
_LOCATION_COLUMN = "location"

# ASCII digits only: str.isdigit, int() and float() also take other scripts'.
_TIMESTAMP_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})Z", re.ASCII)
_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)
_FLOAT_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_NEEDS_QUOTES = re.compile(r'[,"\n\r]')
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":")).encode  # tuples encode as arrays
# Characters of a plain table split and encoded at a time, so that a read
# holds one chunk's cells at once, not the whole table's.
_CHUNK = 1 << 17
# Rows that write_table gathers, joins and encodes at a time, so that it holds
# one part's cells at once beside the bytes written so far.
_WRITE_ROWS = 8192


def _property_fault(kind: str, names) -> str | None:
    """Why ``names`` cannot be the property columns of a ``kind`` header, or
    None: the one header rule of the reader and the writer."""
    for i, name in enumerate(names):
        if name in MANDATORY_COLUMNS[kind] or name == _LOCATION_COLUMN:
            return f"property {name!r} is a reserved {kind} column"
        if name in names[:i]:
            return f"property {name!r} is repeated"
    return None


def parse_timestamp(text: str) -> datetime:
    """Parse ``YYYY-MM-DDTHH:MM:SSZ`` into a tz-aware UTC datetime.

    Raises ValueError for any other shape and for calendar-invalid stamps
    such as ``2023-02-29`` or hour 24.
    """
    match = _TIMESTAMP_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not an ISO-8601 UTC timestamp: {text!r}")
    return datetime(*map(int, match.groups()), tzinfo=timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """Render a UTC datetime as ``YYYY-MM-DDTHH:MM:SSZ``, the year in four digits."""
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt.isoformat(timespec="seconds") + "Z"


def _as_coord_pairs(value) -> tuple[tuple[float, float], ...]:
    pairs = []
    for pair in value:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError("coordinate entries must be [lon, lat] pairs")
        lon, lat = float(pair[0]), float(pair[1])
        pairs.append((lon, lat))
    return tuple(pairs)


def _check_coord_ranges(pairs):
    for lon, lat in pairs:
        if not (math.isfinite(lon) and math.isfinite(lat)):
            raise ValueError("coordinates must be finite")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude {lon} outside [-180, 180]")
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude {lat} outside [-90, 90]")


def _shape_fault(geo_type: str, pairs) -> str | None:
    """What keeps ``pairs`` from being a geometry of ``geo_type``; None if nothing."""
    if geo_type == "Point" and len(pairs) != 1:
        return "Point must have exactly one coordinate pair"
    if geo_type == "LineString" and len(pairs) < 2:
        return "LineString needs at least two points"
    if geo_type == "Polygon":
        if len(pairs) < 4:
            return "Polygon ring needs at least four points"
        if pairs[0] != pairs[-1]:
            return "Polygon ring must close (first == last)"
    return None


@dataclass
class GeoUnit:
    """One spatial unit: a point, a road polyline, or a region ring."""

    geo_id: str
    geo_type: str
    coordinates: tuple[tuple[float, float], ...]
    properties: dict[str, Scalar] = field(default_factory=dict)

    def __post_init__(self):
        self.coordinates = _as_coord_pairs(self.coordinates)


@dataclass
class UserUnit:
    """One moving object (user, vehicle, ...)."""

    usr_id: str
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass
class RelationRecord:
    """A directed pairwise relation between units.

    ``rel_type`` says which tables the endpoints live in: ``geo`` for
    geo-to-geo links (road connectivity, sensor adjacency), ``usr`` for
    usr-to-usr links, ``usr2geo`` for usr-to-geo links.
    """

    rel_id: str
    rel_type: str
    origin_id: str
    des_id: str
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass
class DynaRecord:
    """One timestamped observation attached to a single entity.

    ``dyna_type`` is ``"state"`` (entity is a geo unit; properties carry the
    observed features) or ``"trajectory"`` (entity is a usr unit; ``location``
    optionally names the visited geo unit, None for raw coordinate points
    stored in properties).
    """

    dyna_id: str
    dyna_type: str
    time: datetime
    entity_id: str
    location: str | None = None
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass
class GridRecord:
    """One timestamped observation for a grid cell (row_id, col_id)."""

    dyna_id: str
    dyna_type: str
    time: datetime
    row_id: int
    col_id: int
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass
class ODRecord:
    """One timestamped origin-destination observation between geo units."""

    dyna_id: str
    dyna_type: str
    time: datetime
    origin_id: str
    des_id: str
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass
class GridODRecord:
    """One timestamped observation between two grid cells."""

    dyna_id: str
    dyna_type: str
    time: datetime
    origin_row_id: int
    origin_col_id: int
    des_row_id: int
    des_col_id: int
    properties: dict[str, Scalar] = field(default_factory=dict)


@dataclass
class ExtRecord:
    """External context at one timestamp (weather, events, ...)."""

    ext_id: str
    time: datetime
    properties: dict[str, Scalar] = field(default_factory=dict)


def _coerce_scalar(cell: str) -> Scalar:
    """Type a property cell: empty -> None, canonical int, finite float, str."""
    if cell == "":
        return None
    if _INT_RE.fullmatch(cell):
        try:
            return int(cell)
        except ValueError:
            return cell
    if not _FLOAT_RE.fullmatch(cell):
        return cell
    value = float(cell)  # a literal too large for a float stays a string
    return value if math.isfinite(value) else cell


def _scalar_to_cell(value: Scalar) -> str:
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid property value")
    if isinstance(value, float):
        # repr of a float subclass such as np.float64 may name its type.
        return repr(float(value))
    return str(value)


def _parse_coordinates(cell: str, geo_type: str, table: str, row: int):
    try:
        # Integers parse as floats: no digit limit, and one too large for a
        # float is inf, which the range check rejects.
        raw = json.loads(cell, parse_int=float)
    except json.JSONDecodeError as exc:
        raise BadCoordinate(
            f"coordinates cell is not valid JSON: {exc}",
            table=table,
            row=row,
            column="coordinates",
        ) from None
    try:
        if geo_type == "Point":
            if (
                not isinstance(raw, list)
                or len(raw) != 2
                or any(isinstance(v, (list, dict)) for v in raw)
            ):
                raise ValueError("Point coordinates must be a flat [lon, lat] pair")
            pairs = _as_coord_pairs([raw])
        else:
            if not isinstance(raw, list):
                raise ValueError("coordinates must be a JSON array")
            pairs = _as_coord_pairs(raw)
        fault = _shape_fault(geo_type, pairs)
        if fault is not None:
            raise ValueError(fault)
        _check_coord_ranges(pairs)
    except (ValueError, TypeError) as exc:
        raise BadCoordinate(
            str(exc), table=table, row=row, column="coordinates"
        ) from None
    return pairs


def _format_coordinates(geo_type: str, coordinates) -> str:
    return _COMPACT_JSON(coordinates[0] if geo_type == "Point" else coordinates)


def _parse_time_cell(cell: str, table: str, row, column) -> datetime:
    try:
        return parse_timestamp(cell)
    except ValueError as exc:
        raise BadTimestamp(str(exc), table=table, row=row, column=column) from None


def _parse_enum_cell(cell, table, row, column, domain):
    if cell not in domain:
        raise BadFieldValue(
            f"value {cell!r} not in {domain}", table=table, row=row, column=column
        )
    return cell


def _parse_index_cell(cell, table, row, column) -> int:
    try:
        value = int(cell) if _INT_RE.fullmatch(cell) else -1
    except ValueError:  # more digits than int() converts
        value = -1
    if value < 0:
        raise BadFieldValue(
            f"expected a non-negative integer, got {cell!r}",
            table=table,
            row=row,
            column=column,
        )
    return value


def _parse_id_cell(cell, table, row, column) -> str:
    if cell == "":
        raise BadFieldValue(
            "identifier cell is empty", table=table, row=row, column=column
        )
    return cell


def _read_text(source: Union[bytes, str, IO], table: str) -> str:
    """The text of ``source`` without one leading byte-order mark, as
    pandas' ``read_csv`` drops it; a byte that is not UTF-8 raises
    :class:`BadEncoding` at its row."""
    if not isinstance(source, (bytes, str)):
        source = source.read()
    try:
        text = source if isinstance(source, str) else source.decode("utf-8")
    except UnicodeDecodeError as exc:  # "?" stands in the bad byte's row
        rows = _csv_rows(source[: exc.start].decode("utf-8") + "?", table)
        message = f"byte {source[exc.start]:#04x} at offset {exc.start} is not UTF-8"
        raise BadEncoding(message, table=table, row=len(rows) - 1 or None) from None
    return text[1:] if text.startswith("\ufeff") else text


def _csv_rows(text: str, table: str) -> list[list[str]]:
    """``csv.reader``'s rows of ``text``, with no cap on a cell's length; a
    ``csv.Error`` becomes a :class:`BadEncoding` at its row."""
    rows: list[list[str]] = []
    limit = csv.field_size_limit(len(text) + 1)  # the limit is process-wide
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise BadEncoding(str(exc), table=table, row=len(rows) or None) from None
    finally:
        csv.field_size_limit(limit)
    return rows


def _plain_columns(text: str):
    """(header, columns) of a text with no quote, ``\\r`` or NUL, encoded
    ``_CHUNK`` characters at a time, so that only one chunk's cells are held
    at once; None if a line is blank or its comma count is not the header's."""
    stop = len(text) - text.endswith("\n")  # the newline ending the last row
    start = text.find("\n", 0, stop) + 1 or stop + 1
    header = text[: start - 1].split(",")
    if header == [""]:
        return None
    width, encoders = len(header), [_Encoder() for _ in header]
    while start <= stop:
        end = text.find("\n", start + _CHUNK, stop)
        chunk = text[start : stop if end < 0 else end]
        start += len(chunk) + 1
        lines = chunk.split("\n")
        if "" in lines or set(map(str.count, lines, repeat(","))) != {width - 1}:
            return None
        del lines
        cells = chunk.replace("\n", ",").split(",")
        for j, encoder in enumerate(encoders):
            encoder.feed(cells[j::width])
    return header, [encoder.column() for encoder in encoders]


def _columns(text: str, table: str):
    """(header, the kept rows' dictionary-encoded columns, their ordinals or
    None if all rows are kept, the ragged row's (ordinal, cells) or None): see
    read_table."""
    if not any(map(text.__contains__, '"\r\0')) and (plain := _plain_columns(text)):
        return (*plain, None, None)
    rows = _csv_rows(text, table)
    if not rows:
        raise MissingColumn("table has no header row", table=table)
    width, ordinals, ragged = len(rows[0]), None, None
    lengths = np.array(list(map(len, rows)))
    if (lengths != width).any():  # blank lines, which keep their ordinals, or a ragged row
        at = np.flatnonzero((lengths != width) & (lengths > 0))
        if at.size:  # the rows before the first ragged one are checked first
            ragged, lengths = (int(at[0]), int(lengths[at[0]])), lengths[: at[0]]
        ordinals = np.flatnonzero(lengths[1:]) + 1
        rows = [rows[0], *map(rows.__getitem__, ordinals)]
    columns = [_encode(list(cells)) for cells in zip(*rows[1:])]
    return rows[0], columns or [_encode([])] * width, ordinals, ragged


def _parse_geometry(cell, table, row, column):
    """``cell`` is a (geometry type, coordinates cell) pair; coordinates after
    a bad type are not checked, since the type's error comes first."""
    geo_type, text = cell
    return None if geo_type is None else _parse_coordinates(text, geo_type, table, row)


_ID, _TIME, _INDEX = _parse_id_cell, _parse_time_cell, _parse_index_cell
# Per kind with a type column: the types it may hold.
_TYPES = {"geo": GEO_TYPES, "rel": REL_TYPES, "dyna": DYNA_TYPES,
          "grid": ("state",), "od": ("state",), "gridod": ("state",)}
_TYPE = {kind: partial(_parse_enum_cell, domain=domain) for kind, domain in _TYPES.items()}

# Per kind: the check of each mandatory cell, in header order. A check takes
# (cell, table, row, column) and returns the decoded value or raises.
_CHECKS = {
    "geo": (_ID, _TYPE["geo"], _parse_geometry),
    "usr": (_ID,),
    "rel": (_ID, _TYPE["rel"], _ID, _ID),
    "dyna": (_ID, _TYPE["dyna"], _TIME, _ID),
    "grid": (_ID, _TYPE["grid"], _TIME, _INDEX, _INDEX),
    "od": (_ID, _TYPE["od"], _TIME, _ID, _ID),
    "gridod": (_ID, _TYPE["gridod"], _TIME, _INDEX, _INDEX, _INDEX, _INDEX),
    "ext": (_ID, _TIME),
}

_RECORD_TYPES = {
    "geo": GeoUnit,
    "usr": UserUnit,
    "rel": RelationRecord,
    "dyna": DynaRecord,
    "grid": GridRecord,
    "od": ODRecord,
    "gridod": GridODRecord,
    "ext": ExtRecord,
}
# Per kind: the record attributes before ``properties``, in header order.
_ATTRS = {
    kind: tuple(f.name for f in fields(cls))[:-1] for kind, cls in _RECORD_TYPES.items()
}


class _Missing(enum.Enum):
    """The value a property column holds for a record without that property."""

    MISSING = "missing"


_MISSING = _Missing.MISSING

# Why a property value is or is not a number, per row of Table.numbers: a
# number (int, float or bool), empty (None), missing (the record lacks the
# property), text, or an int too large for a float.
NUMBER, EMPTY, MISSING, TEXT, HUGE = range(5)


def _as_number(value) -> tuple[float, int]:
    """``value`` as a float and its reason; 0.0 when it is not a number."""
    if not isinstance(value, (int, float)):
        return 0.0, EMPTY if value is None else MISSING if value is _MISSING else TEXT
    try:
        return float(value), NUMBER
    except OverflowError:
        return 0.0, HUGE


class Column(NamedTuple):
    """One column as codes into values: row ``i`` holds ``values[codes[i]]``.

    Read from a file, ``values`` holds one decoded value per distinct cell
    string, and ``codes`` are as narrow as ``_code_type`` allows: widen them
    before arithmetic that can pass the dtype's range. Over a record list
    every row has its own code, so typed values that compare equal (1 and
    1.0, -0.0 and 0.0) are never merged.
    """

    codes: np.ndarray
    values: list

    def at(self, row: int):
        return self.values[self.codes[row]]

    def tolist(self) -> list:
        values = self.values
        return [values[k] for k in self.codes.tolist()]

    def positions(self, index: Mapping) -> np.ndarray:
        """Per row, ``index[value]`` as an intp; -1 where the value is not in
        ``index``. Each distinct value is looked up once."""
        return np.array([index.get(v, -1) for v in self.values], dtype=np.intp)[self.codes]

    def flags(self, test) -> np.ndarray:
        """Per row, ``test`` of its value as a bool; evaluated once per code."""
        return np.array([bool(test(v)) for v in self.values], dtype=bool)[self.codes]

    def repeats(self) -> np.ndarray:
        """Per row, whether an earlier row holds an equal value."""
        values, keys = self.values, self.codes
        if len(set(values)) < len(values):  # equal values under different codes
            canon: dict = {}
            first = [canon.setdefault(v, k) for k, v in enumerate(values)]
            keys = np.array(first, dtype=np.intp)[keys]
        return repeats(keys)

    def present(self) -> list:
        """The value of each code some row holds, in order of its first row."""
        _, first = np.unique(self.codes, return_index=True)
        return [self.values[k] for k in self.codes[np.sort(first)].tolist()]


class Table(Sequence):
    """One table held as columns, and a read-only sequence of its records.

    ``fields`` maps each record attribute to its :class:`Column`, and
    ``props`` each property to its column of typed values, in header order;
    a plain list is a column with one code per row. ``ordinals`` are the
    rows' data row numbers in their file, if not 1 to n. :func:`read_table`
    checks and decodes every column once per distinct cell;
    :meth:`from_records` puts a record list behind the same columns. A record
    is built from the columns each time one is asked for and is not kept, so
    changing it leaves the table as it was. ``checked`` is true only on a
    table :func:`read_table` returned, whose identifiers, types and geometry
    it proved, so validation skips them; a table from :meth:`select` or
    :meth:`take`, which can repeat rows or replace fields, is unchecked.
    """

    def __init__(self, kind, fields, props=None, ordinals=None, checked=False):
        def column(c):
            return c if isinstance(c, Column) else Column(np.arange(len(c)), c)

        self.kind = kind
        self._fields = {a: column(c) for a, c in fields.items()}  # record attribute -> Column
        self._props = {p: column(c) for p, c in (props or {}).items()}  # property -> Column
        self.prop_names = tuple(self._props)
        self._n = len(next(iter(self._fields.values())).codes)
        self._ordinals = ordinals
        self.checked = checked

    @classmethod
    def from_records(cls, kind: str, records) -> "Table":
        """The columns of a record list, one code per row. The properties are
        the union of the records' keys, ``_MISSING`` where a record lacks one."""
        records = list(records)
        names = dict.fromkeys(k for r in records for k in r.properties)
        return cls(kind, {a: [getattr(r, a) for r in records] for a in _ATTRS[kind]},
                   {p: [r.properties.get(p, _MISSING) for r in records] for p in names})

    def field(self, name: str) -> Column:
        """The column of a mandatory record attribute, such as ``time``."""
        return self._fields[name]

    def prop(self, name: str) -> Column:
        """A property column of typed values; ``_MISSING`` where a row lacks it."""
        column = self._props.get(name)
        return _constant(_MISSING, self._n) if column is None else column

    def numbers(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The property ``name`` per row as float64, 0.0 where it is not a
        number, and per row its int8 reason: NUMBER, EMPTY, MISSING, TEXT or
        HUGE. Each distinct value converts once."""
        column = self.prop(name)
        pairs = list(map(_as_number, column.values))
        numbers = np.array([x for x, _ in pairs], dtype=np.float64)
        reasons = np.array([r for _, r in pairs], dtype=np.int8)
        return numbers[column.codes], reasons[column.codes]

    def ordinal(self, row: int) -> int:
        """The 1-based data row number of ``row`` in its file; blank lines count."""
        return row + 1 if self._ordinals is None else int(self._ordinals[row])

    def select(self, keep: np.ndarray) -> "Table":
        """The rows where the boolean mask ``keep`` is true, in order."""
        return self.take(np.flatnonzero(keep))

    def take(self, rows: np.ndarray, **fields) -> "Table":
        """The rows at the indices ``rows``, in that order, with the columns
        of the record attributes named in ``fields`` replaced by theirs (a
        list: one value per taken row)."""
        ordinals = rows + 1 if self._ordinals is None else self._ordinals[rows]

        def pick(columns):
            return {k: Column(c.codes[rows], c.values) for k, c in columns.items()}

        return Table(self.kind, {**pick(self._fields), **fields}, pick(self._props), ordinals)

    def _columns(self) -> list[Column]:
        """The record attributes' columns in order, then the properties'."""
        attrs = [self._fields[a] for a in _ATTRS[self.kind]]
        return attrs + [self.prop(name) for name in self.prop_names]

    def _record(self, row: Sequence):
        """The record of one row's values, in :meth:`_columns` order."""
        k = len(_ATTRS[self.kind])
        props = zip(self.prop_names, row[k:])
        return _RECORD_TYPES[self.kind](
            *row[:k], {name: v for name, v in props if v is not _MISSING}
        )

    def __len__(self):
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        row = range(self._n)[index]  # IndexError past either end
        return self._record([c.at(row) for c in self._columns()])

    def __iter__(self):
        return map(self._record, zip(*(c.tolist() for c in self._columns())))

    def __eq__(self, other):
        if isinstance(other, (Table, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Table({self.kind!r}, {self._n} rows)"


def as_table(kind: str, rows) -> Table:
    """``rows`` if it is a Table, else a Table over the record list ``rows``."""
    return rows if isinstance(rows, Table) else Table.from_records(kind, rows)


def _constant(value, n: int) -> Column:
    return Column(np.zeros(n, dtype=np.uint8), [value])


def _ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in range(n)]


def _code_type(n: int) -> np.dtype:
    """The codes' dtype for ``n`` values: uint8, uint16 or uint32, the
    narrowest that holds ``n``."""
    return np.min_scalar_type(n)


class _Encoder:
    """Dictionary-encodes one column fed a chunk of cells at a time; codes
    follow order of first appearance and take ``_code_type`` of the column's
    value count. While every cell is new it holds a set beside the cells in
    order, and builds the cell -> code dict only at the first repeat, so an
    all-distinct column (every ``dyna_id``) never holds one."""

    def __init__(self):
        self.cells, self.seen, self.index, self.parts = [], set(), None, []

    def feed(self, cells: list) -> None:
        index = self.index
        if index is None:
            self.seen.update(cells)
            if len(self.seen) == len(self.cells) + len(cells):
                self.cells.extend(cells)
                return
            n = len(self.cells)  # a repeat: the cells so far become the index
            index = self.index = dict(zip(self.cells, range(n)))
            self.parts.append(np.arange(n, dtype=_code_type(n)))
            self.cells = self.seen = None
        start = len(index)
        index.update(zip(filterfalse(index.__contains__, cells), count(start)))
        dtype = _code_type(len(index))
        if len(index) - start == len(cells):  # every cell new
            self.parts.append(np.arange(start, len(index), dtype=dtype))
        else:
            self.parts.append(np.fromiter(map(index.__getitem__, cells), dtype, len(cells)))

    def column(self) -> Column:
        """The encoded column; the encoder lets go of its index."""
        if self.index is None:
            values = self.cells
            codes = np.arange(len(values), dtype=_code_type(len(values)))
        else:
            values = list(self.index)
            codes = np.concatenate(self.parts, dtype=_code_type(len(values)))
        self.cells = self.seen = self.index = self.parts = None
        return Column(codes, values)


def _encode(cells: list) -> Column:
    """Dictionary-encode cell strings; codes follow order of first appearance."""
    encoder = _Encoder()
    encoder.feed(cells)
    return encoder.column()


def _pairs(a: Column, b: Column) -> Column:
    """The column of (a, b) value pairs; equal pairs share one code."""
    width = len(b.values)
    keys = a.codes.astype(np.int64) * width + b.codes  # narrow codes would wrap
    distinct, codes = np.unique(keys, return_inverse=True)
    pairs = _encode([(a.values[k // width], b.values[k % width]) for k in distinct.tolist()])
    return Column(pairs.codes[codes.reshape(-1)], pairs.values)


def _decode(column: Column, check, table: str, name: str):
    """Run ``check`` (a check of ``_CHECKS``) once per distinct cell: the
    decoded column, None for a failing cell, and None or the first row that
    holds a failing cell with that cell's re-check, which raises what
    ``check`` raised here, located at the ``row=`` it is given."""
    if check is _ID and "" not in column.values:  # an identifier only has to be non-empty
        return column, None
    values, bad = [], np.zeros(len(column.values), dtype=bool)
    for code, cell in enumerate(column.values):
        try:
            values.append(check(cell, table, None, name))
        except (ParseError, ValueError, OverflowError):
            values.append(None)
            bad[code] = True
    held = bad[column.codes]  # a value that no row holds is no fault
    if not held.any():
        return Column(column.codes, values), None
    row = int(np.argmax(held))
    return Column(column.codes, values), (row, partial(check, column.at(row), table, column=name))


def _raise_first(failures: list, ordinals, ragged: ParseError | None) -> None:
    """Raise the first fault in (row, column) order, if there is one: of
    ``failures``, (row, position, re-check) triples, the least, at its row's
    ordinal; else ``ragged``, the ragged row after the checked rows."""
    if failures:
        row, _, raise_at = min(failures, key=lambda f: f[:2])
        raise_at(row=row + 1 if ordinals is None else int(ordinals[row]))
    if ragged is not None:
        raise ragged


def repeats(keys: np.ndarray) -> np.ndarray:
    """Per position, whether an earlier position holds an equal key."""
    if np.all(keys[1:] > keys[:-1]):  # increasing, as rows usually come
        return np.zeros(len(keys), dtype=bool)
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _spans(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices ``first[i]`` to ``first[i] + count[i]``, concatenated."""
    return np.arange(count.sum()) + np.repeat(first - count.cumsum() + count, count)


def read_table(kind: str, source: Union[bytes, str, IO]) -> Table:
    """Read one table of the given kind from bytes, text, or a file object.

    A text with no quote, ``\\r``, NUL (which ``csv.reader`` refuses before
    Python 3.11) or blank line, and the header's comma count on every line, is
    split with ``str.split`` and dictionary-encoded about 128 KiB at a time:
    the dyna, grid, rel, usr and ext tables stkit writes, unless a property
    needs quotes. Any other, such as a ``.geo`` with quoted coordinates, goes
    through ``csv.reader`` whole. Each distinct cell is checked and decoded
    once: a mandatory cell by its column's rule, a property cell typed as
    None, int, float or str.

    A byte that is not UTF-8 raises :class:`~stkit.exceptions.BadEncoding` at
    its row. Otherwise a located ``ParseError`` subclass is raised on the
    first malformed row in file order: missing or misordered mandatory
    columns, a reserved or repeated property (the first one, named as
    :func:`write_table` names it), ragged rows, bad timestamps or coordinates,
    out-of-domain enum values, negative grid indices, or repeated primary
    identifiers. Within a row, columns are checked in header order and the
    identifier repeat last.
    Rows count from 1 and include skipped blank lines. The table is ``checked``.
    """
    if kind not in MANDATORY_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    header, columns, ordinals, ragged = _columns(_read_text(source, kind), kind)
    mandatory = MANDATORY_COLUMNS[kind]
    if tuple(header[: len(mandatory)]) != mandatory:
        raise MissingColumn(
            f"header must start with {list(mandatory)}, got {header[: len(mandatory)]}",
            table=kind,
        )
    has_location = kind == "dyna" and header[len(mandatory) :][:1] == [_LOCATION_COLUMN]
    n_fixed = len(mandatory) + has_location
    prop_names = header[n_fixed:]
    if (fault := _property_fault(kind, prop_names)) is not None:
        raise MissingColumn(fault, table=kind)

    n = len(columns[0].codes)

    decoded: dict[str, Column] = {}
    failures = []  # (row, position, raise_at(row=ordinal)), one per failing check
    for position, (attr, check, name, column) in enumerate(
        zip(_ATTRS[kind], _CHECKS[kind], mandatory, columns)
    ):
        if check is _parse_geometry:
            column = _pairs(decoded["geo_type"], column)
        decoded[attr], fault = _decode(column, check, kind, name)
        if fault is not None:
            failures.append((fault[0], position, fault[1]))
    ids = columns[0]
    if kind == "ext":  # the identity is (ext_id, time); equal times have equal cells
        ids = _pairs(ids, columns[1])
    if len(ids.values) < n:  # a repeated identifier
        row = int(np.argmax(repeats(ids.codes)))
        raise_at = partial(_duplicate, ids.at(row), kind, mandatory[0])
        failures.append((row, len(mandatory), raise_at))
    _raise_first(failures, ordinals, ragged and RaggedRow(
        f"row has {ragged[1]} cells, header has {len(header)}", table=kind, row=ragged[0]))

    if kind == "dyna":
        location = columns[4] if has_location else _constant("", n)
        locations = [cell or None for cell in location.values]
        decoded["location"] = Column(location.codes, locations)
    typed = (Column(c.codes, list(map(_coerce_scalar, c.values))) for c in columns[n_fixed:])
    return Table(kind, decoded, dict(zip(prop_names, typed)), ordinals, checked=True)


def _duplicate(key, table, column, row):
    raise DuplicateId(
        f"identifier {key!r} already used", table=table, row=row, column=column
    )


def parse_table(kind: str, source: Union[bytes, str, IO]) -> list:
    """Parse one table into a list of record dataclasses in file order.

    The same as ``list(read_table(kind, source))``, and raises the same
    located errors.
    """
    return list(read_table(kind, source))


def _csv_fields(cells: list, lone: bool) -> list[str]:
    """``cells`` as CSV fields: text as ``csv.writer`` makes it, quoted with
    ``"`` doubled if it holds ``,``, ``"``, ``\\n`` or ``\\r``, or if ``lone``
    in its row and empty. One search of the joined cells clears a column."""
    try:
        text = "".join(cells)
    except TypeError:  # None is empty, a float its repr
        cells = ["" if c is None else repr(c) if isinstance(c, float) else str(c) for c in cells]
        text = "".join(cells)
    if not _NEEDS_QUOTES.search(text) and not (lone and "" in cells):
        return cells
    quote = _NEEDS_QUOTES.search
    return ['"' + c.replace('"', '""') + '"' if quote(c) or lone and not c else c for c in cells]


def write_table(kind: str, records: Iterable) -> bytes:
    """Serialize a :class:`Table` of one kind, or a record list put behind the
    same columns, to CSV bytes.

    The mandatory cells are the record attributes the reader decodes, and
    the property header is the table's ``prop_names``: for a record list,
    the keys in order of first appearance. Every row must carry every
    property, and a property name the reader's header rule refuses raises
    ValueError. Trajectory tables gain a ``location`` column only when at
    least one row has a location. Each column's distinct cells are formatted
    and quoted once; then ``_WRITE_ROWS`` rows at a time are gathered by the
    codes, joined and encoded. Rows end with ``\\n``.
    ``parse_table(kind, write_table(kind, records))`` reproduces the records.
    """
    if kind not in MANDATORY_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    table = as_table(kind, records)
    if (fault := _property_fault(kind, table.prop_names)) is not None:
        raise ValueError(fault)
    header, attrs = list(MANDATORY_COLUMNS[kind]), _ATTRS[kind]
    if kind == "dyna":
        if table.field("location").flags(lambda v: v is not None).any():
            header.append(_LOCATION_COLUMN)
        else:
            attrs = attrs[:-1]
    header.extend(table.prop_names)
    columns = [table.field(a) for a in attrs]
    if "time" in attrs:
        at = attrs.index("time")
        times = columns[at].values
        # Equal instants format alike, so each distinct one is formatted once.
        stamps = {t: format_timestamp(t) for t in set(times)}
        columns[at] = Column(columns[at].codes, list(map(stamps.__getitem__, times)))
    if kind == "geo":  # a coordinates cell depends on the row's type too
        shapes = map(_format_coordinates, columns[1].tolist(), columns[2].tolist())
        columns[2] = Column(np.arange(len(table)), list(shapes))
    for name in table.prop_names:
        column = table.prop(name)
        missing = column.flags(lambda v: v is _MISSING)
        if missing.any():
            raise ValueError(
                f"every row must carry property {name!r}; "
                f"row {table.ordinal(int(np.argmax(missing)))} lacks it"
            )
        columns.append(Column(column.codes, list(map(_scalar_to_cell, column.values))))

    lone = len(header) == 1
    columns = [Column(c.codes, _csv_fields(c.values, lone)) for c in columns]
    parts = [(",".join(_csv_fields(header, lone)) + "\n").encode("utf-8")]
    for lo in range(0, len(table), _WRITE_ROWS):
        cells = [Column(c.codes[lo : lo + _WRITE_ROWS], c.values).tolist() for c in columns]
        parts.append(("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8"))
    return b"".join(parts)
