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
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import IO, Iterable, Union

from .exceptions import (
    BadCoordinate,
    BadFieldValue,
    BadTimestamp,
    DuplicateId,
    MissingColumn,
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
        raw = json.loads(cell)
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
            if geo_type == "LineString" and len(pairs) < 2:
                raise ValueError("LineString needs at least two points")
            if geo_type == "Polygon":
                if len(pairs) < 4:
                    raise ValueError("Polygon ring needs at least four points")
                if pairs[0] != pairs[-1]:
                    raise ValueError("Polygon ring must close (first == last)")
        _check_coord_ranges(pairs)
    except (ValueError, TypeError) as exc:
        raise BadCoordinate(
            str(exc), table=table, row=row, column="coordinates"
        ) from None
    return pairs


def _format_coordinates(record: GeoUnit) -> str:
    if record.geo_type == "Point":
        payload = list(record.coordinates[0])
    else:
        payload = [list(p) for p in record.coordinates]
    return json.dumps(payload, separators=(",", ":"))


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
    if not _INT_RE.match(cell) or int(cell) < 0:
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


def parse_table(kind: str, source: Union[bytes, str, IO]) -> list:
    """Parse one table of the given kind from bytes, text, or a file object.

    Returns a list of record dataclasses in file order. Raises a located
    :class:`~stkit.exceptions.ParseError` subclass on the first malformed
    cell: missing or misordered mandatory columns, ragged rows, bad
    timestamps, bad coordinates, out-of-domain enum values, negative grid
    indices, or duplicated primary identifiers.
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
        return (record.ext_id, record.time)
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


def _mandatory_cells(kind: str, record, has_location: bool) -> list[str]:
    if kind == "geo":
        return [record.geo_id, record.geo_type, _format_coordinates(record)]
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


def write_table(kind: str, records: Iterable) -> bytes:
    """Serialize records of one kind to CSV bytes.

    The property header is taken from the first record's key order; every
    record must carry the same property keys. Trajectory tables gain a
    ``location`` column only when at least one record has a location.
    ``parse_table(kind, write_table(kind, records))`` reproduces the records.
    """
    if kind not in MANDATORY_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    records = list(records)
    header = list(MANDATORY_COLUMNS[kind])
    has_location = kind == "dyna" and any(r.location is not None for r in records)
    if has_location:
        header.append(_LOCATION_COLUMN)
    prop_names: tuple[str, ...] = ()
    if records:
        prop_names = tuple(records[0].properties.keys())
    header.extend(prop_names)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        if tuple(record.properties.keys()) != prop_names:
            raise ValueError(
                f"all records must share property keys {prop_names}, "
                f"got {tuple(record.properties.keys())}"
            )
        cells = _mandatory_cells(kind, record, has_location)
        cells.extend(_scalar_to_cell(record.properties[k]) for k in prop_names)
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")
