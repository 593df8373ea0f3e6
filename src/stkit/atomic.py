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
one is asked for; :func:`parse_table` returns the records as a list.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from operator import attrgetter, itemgetter
from typing import IO, Iterable, NamedTuple, Union

import numpy as np

from .exceptions import (
    BadCoordinate,
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

_TIMESTAMP_RE = re.compile(r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})Z")
_INT_RE = re.compile(r"^[+-]?\d+$")


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
    """Render a UTC datetime as ``YYYY-MM-DDTHH:MM:SSZ``."""
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


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
    if _INT_RE.match(cell):
        try:
            return int(cell)
        except ValueError:
            return cell
    try:
        value = float(cell)
    except ValueError:
        return cell
    # Keep nan/inf spellings as strings so writing reproduces the input.
    if not math.isfinite(value):
        return cell
    return value


def _scalar_to_cell(value: Scalar) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("bool is not a valid property value")
    if isinstance(value, float):
        return repr(value)
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
    if geo_type == "Point":
        payload = list(coordinates[0])
    else:
        payload = [list(p) for p in coordinates]
    return json.dumps(payload, separators=(",", ":"))


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
        value = int(cell) if _INT_RE.match(cell) else -1
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


def _read_rows(source: Union[bytes, str, IO]) -> list[list[str]]:
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    return list(csv.reader(io.StringIO(text, newline="")))


def _parse_geometry(cell, table, row, column):
    """``cell`` is a (geometry type, coordinates cell) pair; coordinates after
    a bad type are not checked, since the type's error comes first."""
    geo_type, text = cell
    return None if geo_type is None else _parse_coordinates(text, geo_type, table, row)


_ID, _TIME, _INDEX = _parse_id_cell, _parse_time_cell, _parse_index_cell
_STATE = partial(_parse_enum_cell, domain=("state",))

# Per kind: the check of each mandatory cell, in header order. A check takes
# (cell, table, row, column) and returns the decoded value or raises.
_CHECKS = {
    "geo": (_ID, partial(_parse_enum_cell, domain=GEO_TYPES), _parse_geometry),
    "usr": (_ID,),
    "rel": (_ID, partial(_parse_enum_cell, domain=REL_TYPES), _ID, _ID),
    "dyna": (_ID, partial(_parse_enum_cell, domain=DYNA_TYPES), _TIME, _ID),
    "grid": (_ID, _STATE, _TIME, _INDEX, _INDEX),
    "od": (_ID, _STATE, _TIME, _ID, _ID),
    "gridod": (_ID, _STATE, _TIME, _INDEX, _INDEX, _INDEX, _INDEX),
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


class Column(NamedTuple):
    """One column as codes into values: row ``i`` holds ``values[codes[i]]``.

    Read from a file, ``values`` holds one decoded value per distinct cell
    string. Over a record list every row has its own code, so typed values
    that compare equal (1 and 1.0, -0.0 and 0.0) are never merged.
    """

    codes: np.ndarray
    values: list

    def at(self, row: int):
        return self.values[self.codes[row]]

    def tolist(self) -> list:
        values = self.values
        return [values[k] for k in self.codes.tolist()]

    def flags(self, test) -> np.ndarray:
        """Per row, ``test`` of its value as a bool; evaluated once per code."""
        return np.array([bool(test(v)) for v in self.values], dtype=bool)[self.codes]

    def present(self) -> list:
        """The value of each code some row holds, in order of its first row."""
        _, first = np.unique(self.codes, return_index=True)
        return [self.values[k] for k in self.codes[np.sort(first)].tolist()]


class Table(Sequence):
    """One table held as columns, and a read-only sequence of its records.

    :func:`read_table` checks and decodes the mandatory columns once per
    distinct cell and types a property column only when it is asked for;
    :meth:`from_records` encodes a record list into the same columns. A record
    is built from the columns each time one is asked for and is not kept, so
    changing it leaves the table as it was.
    """

    def __init__(self, kind, n, prop_names, decoded, strings, ordinals=None, props=None):
        self.kind = kind
        self.prop_names = tuple(prop_names)
        self._n = n
        self._fields = decoded  # record attribute -> decoded Column
        self._strings = strings  # property -> raw cell strings, typed when asked for
        self._props: dict[str, Column] = props or {}  # property -> typed Column
        self._ordinals = ordinals

    @classmethod
    def from_records(cls, kind: str, records) -> "Table":
        """The columns of a record list, one code per row. The properties are
        the union of the records' keys, ``_MISSING`` where a record lacks one."""
        records = list(records)
        codes = np.arange(len(records))
        decoded = {
            a: Column(codes, [getattr(r, a) for r in records]) for a in _ATTRS[kind]
        }
        names = tuple(dict.fromkeys(k for r in records for k in r.properties))
        props = {
            name: Column(codes, [r.properties.get(name, _MISSING) for r in records])
            for name in names
        }
        return cls(kind, len(records), names, decoded, {}, props=props)

    def field(self, name: str) -> Column:
        """The column of a mandatory record attribute, such as ``time``."""
        return self._fields[name]

    def prop(self, name: str) -> Column:
        """A property column of typed values; ``_MISSING`` where a row lacks it."""
        column = self._props.get(name)
        if column is None:
            raw = self._strings.get(name)
            if raw is None:
                column = Column(np.zeros(self._n, dtype=np.intp), [_MISSING])
            else:
                column = Column(raw.codes, [_coerce_scalar(s) for s in raw.values])
            self._props[name] = column
        return column

    def ordinal(self, row: int) -> int:
        """The 1-based data row number of ``row`` in its file; blank lines count."""
        return row + 1 if self._ordinals is None else int(self._ordinals[row])

    def select(self, keep: np.ndarray) -> "Table":
        """The rows where the boolean mask ``keep`` is true, in order."""
        rows = np.flatnonzero(keep)
        ordinals = rows + 1 if self._ordinals is None else self._ordinals[rows]

        def pick(columns):
            return {k: Column(c.codes[rows], c.values) for k, c in columns.items()}

        return Table(
            self.kind, len(rows), self.prop_names, pick(self._fields),
            pick(self._strings), ordinals, pick(self._props),
        )

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


def _encode(cells: list) -> Column:
    """Dictionary-encode cell strings; codes follow order of first appearance."""
    index = dict.fromkeys(cells)
    if len(index) == len(cells):
        return Column(np.arange(len(cells)), list(cells))
    index = dict(zip(index, range(len(index))))
    codes = np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))
    return Column(codes, list(index))


def _decode(column: Column, check, table: str, name: str) -> tuple[Column, list[int]]:
    """Run ``check`` once per distinct cell: the decoded column and failed codes.

    A failing cell is checked again, located, on the first row holding it,
    if that is the table's first error; so it raises what it raised here.
    """
    if check is _ID:  # an identifier cell only has to be non-empty
        bad = [column.values.index("")] if "" in column.values else []
        return column, bad
    values, bad = [], []
    for code, cell in enumerate(column.values):
        try:
            values.append(check(cell, table, None, name))
        except (ParseError, ValueError, OverflowError):
            values.append(None)
            bad.append(code)
    return Column(column.codes, values), bad


def _first_row(column: Column, codes: list[int]) -> int:
    """The first row whose code is one of ``codes``."""
    flags = np.zeros(len(column.values), dtype=bool)
    flags[codes] = True
    return int(np.argmax(flags[column.codes]))


def repeats(keys: np.ndarray) -> np.ndarray:
    """Per position, whether an earlier position holds an equal key."""
    if np.all(keys[1:] > keys[:-1]):  # increasing, as rows usually come
        return np.zeros(len(keys), dtype=bool)
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def read_table(kind: str, source: Union[bytes, str, IO]) -> Table:
    """Read one table of the given kind from bytes, text, or a file object.

    ``csv.reader`` runs once and its rows are transposed to columns. Each
    column is dictionary-encoded, and each distinct mandatory cell is checked
    and decoded once. Property cells are typed only when asked for.

    Raises a located :class:`~stkit.exceptions.ParseError` subclass on the
    first malformed row in file order: missing or misordered mandatory
    columns, ragged rows, bad timestamps, bad coordinates, out-of-domain enum
    values, negative grid indices, or duplicated primary identifiers. Within
    a row, columns are checked in header order and the identifier repeat
    last. Row numbers count data rows from 1 and include skipped blank lines.
    """
    if kind not in MANDATORY_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    rows = _read_rows(source)
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
    if len(set(prop_names)) != len(prop_names) or any(
        p in mandatory or p == _LOCATION_COLUMN for p in prop_names
    ):
        raise MissingColumn(
            f"property columns must be unique and distinct from mandatory ones: {prop_names}",
            table=kind,
        )

    body = rows[1:]
    del rows
    width = len(header)
    ordinals = ragged = None
    if set(map(len, body)) - {width}:  # blank lines or a ragged row
        kept, numbers = [], []
        for ordinal, row in enumerate(body, start=1):
            if not row:
                continue  # ignore blank lines; they still count as rows
            if len(row) != width:
                ragged = RaggedRow(
                    f"row has {len(row)} cells, header has {width}",
                    table=kind,
                    row=ordinal,
                )
                break  # the rows before it are checked first
            kept.append(row)
            numbers.append(ordinal)
        body, ordinals = kept, np.array(numbers, dtype=np.intp)
    n = len(body)
    columns = [_encode(list(map(itemgetter(j), body))) for j in range(width)]
    del body

    decoded: dict[str, Column] = {}
    failures = []  # (row, position, raise_at(row=ordinal)), one per failing check
    for position, (attr, check, name, column) in enumerate(
        zip(_ATTRS[kind], _CHECKS[kind], mandatory, columns)
    ):
        if check is _parse_geometry:
            column = _encode(list(zip(decoded["geo_type"].tolist(), column.tolist())))
        decoded[attr], bad = _decode(column, check, kind, name)
        if bad:
            row = _first_row(column, bad)
            raise_at = partial(check, column.at(row), kind, column=name)
            failures.append((row, position, raise_at))
    ids = columns[0]
    if kind == "ext":  # the identity is (ext_id, time)
        ids = _encode(list(zip(ids.tolist(), decoded["time"].tolist())))
    if len(ids.values) < n:  # a repeated identifier
        row = int(np.argmax(repeats(ids.codes)))
        raise_at = partial(_duplicate, ids.at(row), kind, mandatory[0])
        failures.append((row, len(mandatory), raise_at))
    if failures:
        row, _, raise_at = min(failures, key=lambda f: f[:2])
        raise_at(row=row + 1 if ordinals is None else int(ordinals[row]))
    if ragged is not None:
        raise ragged

    if kind == "dyna":
        location = columns[4] if has_location else Column(np.zeros(n, np.intp), [""])
        locations = [cell or None for cell in location.values]
        decoded["location"] = Column(location.codes, locations)
    strings = dict(zip(prop_names, columns[n_fixed:]))
    return Table(kind, n, prop_names, decoded, strings, ordinals)


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


def write_table(kind: str, records: Iterable) -> bytes:
    """Serialize records of one kind to CSV bytes, one row at a time.

    The mandatory cells are the record attributes the reader decodes. The
    property header is taken from the first record's key order; every
    record must carry the same property keys. Trajectory tables gain a
    ``location`` column only when at least one record has a location.
    ``parse_table(kind, write_table(kind, records))`` reproduces the records.
    """
    if kind not in MANDATORY_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    records = list(records)
    header, attrs = list(MANDATORY_COLUMNS[kind]), _ATTRS[kind]
    if kind == "dyna":
        if any(r.location is not None for r in records):
            header.append(_LOCATION_COLUMN)
        else:
            attrs = attrs[:-1]
    prop_names = tuple(records[0].properties) if records else ()
    header.extend(prop_names)
    cells_of = attrgetter(*attrs, "properties")
    at_time = attrs.index("time") if "time" in attrs else None
    stamps: dict[datetime, str] = {}  # each distinct timestamp is formatted once

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        *cells, properties = cells_of(record)
        if tuple(properties) != prop_names:
            raise ValueError(
                f"all records must share property keys {prop_names}, "
                f"got {tuple(properties)}"
            )
        if at_time is not None:
            time = cells[at_time]
            if time not in stamps:
                stamps[time] = format_timestamp(time)
            cells[at_time] = stamps[time]
        if kind == "geo":
            cells[2] = _format_coordinates(cells[1], cells[2])
        cells.extend(map(_scalar_to_cell, properties.values()))
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")
