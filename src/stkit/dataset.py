"""Dataset directories: manifest, loading, validation, and raw-CSV conversion.

A dataset is a directory holding ``manifest.json`` plus one file per table
kind, named ``<name>.<suffix>``. The manifest pins the metadata that the
tables cannot express on their own: sampling interval, grid shape, declared
feature columns, and (optionally) an explicit geo ordering.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .atomic import (
    MANDATORY_COLUMNS,
    Column,
    Table,
    format_timestamp,
    read_table,
    write_table,
)
from .atomic import _check_coord_ranges, _shape_fault  # shared geometry rules
from .atomic import _ATTRS, _CHECKS, _FLOAT_RE, _TYPES  # shared type and number rules
from .atomic import _coerce_scalar, _columns, _decode, _pairs, _raise_first, _read_text
from .atomic import _constant, _ids  # shared column builders
from .atomic import _ID, _INDEX, _TIME, _property_fault  # shared rules
from .config import write_json
from .exceptions import (
    BadConfigFile,
    BadCoordinate,
    BadManifest,
    BadTimestamp,
    MissingColumn,
    MissingManifest,
    RaggedRow,
    UnmappedMandatoryColumn,
    ValidationFailed,
)

__all__ = [
    "Manifest",
    "AtomicDataset",
    "Finding",
    "ValidationReport",
    "validate_dataset",
    "load_dataset",
    "save_dataset",
    "RawConversionSpec",
    "convert_raw_csv",
    "dataset_stats",
]


def _name_fault(name: str) -> str | None:
    """Why a dataset ``name`` is not a plain file name; None if it is one."""
    if name in ("", ".", "..") or any(c in name for c in ("/", os.sep, "\0")):
        return f"name {name!r} is not a plain file name"
    return None


@dataclass
class Manifest:
    """Dataset-level metadata stored as manifest.json."""

    name: str
    interval_seconds: int | None = None
    grid_rows: int | None = None
    grid_cols: int | None = None
    features: tuple[str, ...] = ()
    geo_order: tuple[str, ...] | None = None

    @classmethod
    def from_json(cls, payload: Mapping) -> "Manifest":
        """The manifest of a JSON object; :class:`BadManifest` names the bad key.

        ``name`` must be a string and a plain file name; ``interval_seconds``
        (0 or null: infer it) an int or null; ``grid_rows`` and ``grid_cols``
        ints of at least 1 or null; ``features`` and ``geo_order`` lists of
        strings or null, ``geo_order`` without a repeat.
        """
        if not isinstance(payload, Mapping):
            raise BadManifest("manifest must be a JSON object", table="manifest")

        def bad(key, message):
            return BadManifest(message, table="manifest", column=key)

        if "name" not in payload:
            raise bad("name", "manifest lacks the dataset name")
        name = payload["name"]
        if not isinstance(name, str):
            raise bad("name", f"name must be a string, got {name!r}")
        if fault := _name_fault(name):
            raise bad("name", fault)
        for key in ("interval_seconds", "grid_rows", "grid_cols"):
            value = payload.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, type(None))):
                raise bad(key, f"{key} must be an integer or null, got {value!r}")
        if (payload.get("interval_seconds") or 0) < 0:
            raise bad("interval_seconds", "interval_seconds must not be negative")
        for key in ("grid_rows", "grid_cols"):
            if (value := payload.get(key)) is not None and value < 1:
                raise bad(key, f"{key} must be at least 1 or null, got {value!r}")
        for key in ("features", "geo_order"):
            value = payload.get(key)
            if value is not None and not (
                isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)
            ):
                raise bad(key, f"{key} must be a list of strings or null, got {value!r}")
        seen: set = set()
        repeated = [g for g in payload.get("geo_order") or () if g in seen or seen.add(g)]
        if repeated:
            raise bad("geo_order", f"geo_order repeats {repeated[0]!r}")
        return cls(
            name=name,
            interval_seconds=payload.get("interval_seconds"),
            grid_rows=payload.get("grid_rows"),
            grid_cols=payload.get("grid_cols"),
            features=tuple(payload.get("features") or ()),
            geo_order=(
                tuple(payload["geo_order"]) if payload.get("geo_order") else None
            ),
        )

    def to_json(self) -> dict:
        payload: dict = {"name": self.name}
        if self.interval_seconds is not None:
            payload["interval_seconds"] = self.interval_seconds
        if self.grid_rows is not None:
            payload["grid_rows"] = self.grid_rows
        if self.grid_cols is not None:
            payload["grid_cols"] = self.grid_cols
        if self.features:
            payload["features"] = list(self.features)
        if self.geo_order is not None:
            payload["geo_order"] = list(self.geo_order)
        return payload


@dataclass(frozen=True)
class AtomicDataset:
    """All tables of one dataset plus its manifest, held in memory.

    Every table is a :class:`~stkit.atomic.Table`, which keeps only columns
    and builds a record each time one is asked for. A record list given
    here is put behind columns once, by :meth:`Table.from_records`. The
    dataset cannot be assigned to: ``dataclasses.replace(ds, rel=[...])``
    gives a changed copy.
    """

    manifest: Manifest
    geo: Table = ()
    usr: Table = ()
    rel: Table = ()
    dyna: Table = ()
    grid: Table = ()
    od: Table = ()
    gridod: Table = ()
    ext: Table = ()

    def __post_init__(self):
        for kind in MANDATORY_COLUMNS:
            rows = getattr(self, kind)
            if not isinstance(rows, Table):
                object.__setattr__(self, kind, Table.from_records(kind, rows))

    def tables(self) -> dict[str, Table]:
        """Present (non-empty) tables keyed by kind."""
        return {
            kind: getattr(self, kind)
            for kind in MANDATORY_COLUMNS
            if getattr(self, kind)
        }

    def geo_order(self) -> tuple[str, ...]:
        """Spatial ordering: manifest override, else .geo file row order."""
        if self.manifest.geo_order is not None:
            return self.manifest.geo_order
        return tuple(self.geo.field("geo_id").tolist())


@dataclass
class Finding:
    """One validation finding, anchored to a table and (usually) a row."""

    severity: str  # "error" | "warning"
    table: str
    row: int | None
    message: str

    def __str__(self):
        where = f"{self.table}" if self.row is None else f"{self.table}:{self.row}"
        return f"[{self.severity}] {where}: {self.message}"


@dataclass
class ValidationReport:
    """All findings from one validation pass, file order preserved."""

    findings: list[Finding] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"

    def render(self) -> str:
        lines = [str(f) for f in self.findings]
        lines.append(self.summary())
        return "\n".join(lines)


def _found(found: list, table, rows, rank: int, severity, message, column=None):
    """Add a finding at each flagged row; ``rank`` orders findings within a row.

    ``message`` is a function of the row, or a format string for the row's
    value in ``column``.
    """
    for i in np.flatnonzero(rows).tolist():
        text = message(i) if column is None else message.format(column.at(i))
        found.append(((i, rank), Finding(severity, table, i + 1, text)))


def _references(found: list, table: str, references, pools: dict) -> None:
    """Check each reference (rows, column, kind, rank, error, warning).

    Each flagged row whose value is no id of the ``kind`` table is an error.
    If that table is absent, ``warning`` is given once instead, where the
    first of its references' rows and ranks is.
    """
    absent: dict[str, tuple] = {}
    for rows, column, kind, rank, error, warning in references:
        pool = pools[kind]
        if not rows.any():
            continue
        if pool is None:
            first = (-1, int(np.argmax(rows)), rank)
            absent[warning] = min(absent.get(warning, first), first)
        else:  # only the values that flagged rows hold are looked up
            held = np.flatnonzero(np.bincount(column.codes[rows], minlength=len(column.values)))
            known = np.ones(len(column.values), dtype=bool)
            known[held] = list(map(pool.__contains__, map(column.values.__getitem__, held.tolist())))
            _found(found, table, rows & ~known[column.codes], rank, "error", error, column)
    found.extend((first, Finding("warning", table, None, w)) for w, first in absent.items())


def _geometry_fault(geo_type, coordinates) -> str | None:
    """The shape and range faults of a geometry, joined by "; "; None if it
    has none."""
    fault = _shape_fault(geo_type, coordinates)
    problems = [] if fault is None else [fault]
    try:
        _check_coord_ranges(coordinates)
    except ValueError as exc:
        problems.append(str(exc))
    return "; ".join(problems) or None


def _whole(value) -> bool:
    """Whether ``value`` is an integer, not a bool, as an index cell must be."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Per reader check of a cell that a record's value can fail: the test of a
# failing value, and the message of its finding for column ``{}``.
_REFUSED = {
    _ID: (lambda v: v == "" or v is None, "empty {} {{!r}}"),
    _TIME: (lambda v: not isinstance(v, datetime) or v.tzinfo is None,
            "{} {{!r}} is not a datetime with a time zone"),
    _INDEX: (lambda v: not _whole(v), "{} {{!r}} is not an integer"),
}


def _own_rules(table: Table, found: list) -> np.ndarray:
    """Check a table that is not ``checked`` by the reader's own rules:
    identifiers, times, indices, types and geometry. Adds their findings to
    ``found`` and returns the rows that pass all but the geometry rules."""
    kind, attrs = table.kind, _ATTRS[table.kind]
    ok = np.ones(len(table), dtype=bool)
    for name, check in zip(attrs, _CHECKS[kind]):
        if check in _REFUSED:
            column, (test, message) = table.field(name), _REFUSED[check]
            bad = ok & column.flags(test)
            _found(found, kind, bad, 0, "error", message.format(name), column)
            ok &= ~bad
    # A row's identifier; for ext, the (ext_id, time) pair, its only attributes.
    ids = _pairs(*map(table.field, attrs)) if kind == "ext" else table.field(attrs[0])
    bad = ok & ids.repeats()
    if kind == "ext":
        _found(found, kind, bad, 0, "error", lambda i: "duplicate (ext_id, time) pair "
               "{!r} @ {}".format(ids.at(i)[0], format_timestamp(ids.at(i)[1])))
    else:
        _found(found, kind, bad, 0, "error", f"duplicate {attrs[0]} {{!r}}", ids)
    ok &= ~bad
    if kind in _TYPES:
        types, label = table.field(attrs[1]), "relation" if kind == "rel" else kind
        bad = ok & ~types.flags(lambda v: v in _TYPES[kind])
        _found(found, kind, bad, 0, "error", f"unknown {label} type {{!r}}", types)
        ok &= ~bad
    if kind == "geo":
        shapes = _pairs(table.field("geo_type"), table.field("coordinates"))
        faults = Column(shapes.codes, [_geometry_fault(*shape) for shape in shapes.values])
        bad = ok & faults.flags(lambda v: v is not None)
        _found(found, kind, bad, 0, "error", "{}", faults)
    return ok


# Each check below takes (dataset, table, ok, found): ``ok`` flags the rows
# that pass the identifier and type rules. It adds the findings of its own
# rules to ``found`` and returns the table's references, which
# ``_references`` checks.


# Per end of a relation: its column and, per relation type, the table it names.
_REL_ENDS = (
    ("origin_id", {"geo": "geo", "usr": "usr", "usr2geo": "usr"}),
    ("des_id", {"geo": "geo", "usr": "usr", "usr2geo": "geo"}),
)


def _check_rel(ds: AtomicDataset, table: Table, ok, found: list):
    types = table.field("rel_type")
    return [
        (
            ok & types.flags(lambda v: ends.get(v) == kind), table.field(side), kind, rank,
            f"{side} {{!r}} not found in .{kind}",
            f"referenced .{kind} table absent; endpoints unresolvable",
        )
        for rank, (side, ends) in enumerate(_REL_ENDS)
        for kind in ("geo", "usr")
    ]


def _check_dyna(ds: AtomicDataset, table: Table, ok, found: list):
    types, entities, locations, times = map(
        table.field, ("dyna_type", "entity_id", "location", "time")
    )
    traj = ok & types.flags(lambda v: v == "trajectory")
    last_time: dict[str, object] = {}
    nonmonotone: set[str] = set()
    for i in np.flatnonzero(traj).tolist():
        entity, time = entities.at(i), times.at(i)
        prev = last_time.get(entity)
        if prev is not None and time < prev and entity not in nonmonotone:
            nonmonotone.add(entity)
            message = (
                f"timestamps for entity {entity!r} are not "
                "non-decreasing in file order"
            )
            found.append(((i, 2), Finding("warning", "dyna", i + 1, message)))
        last_time[entity] = time
    return (
        (
            ok & types.flags(lambda v: v == "state"), entities, "order", 0,
            "entity_id {!r} not in " + _ordering(ds),
            "state rows present but .geo table absent; entities unresolvable",
        ),
        (
            traj, entities, "usr", 0, "entity_id {!r} not in .usr",
            "trajectory rows present but .usr table absent; entities unresolvable",
        ),
        (
            traj & locations.flags(lambda v: v is not None), locations, "geo", 1,
            "location {!r} not in .geo", "location column present but .geo table absent",
        ),
    )


# Per grid-indexed kind: its index columns, each with the manifest key that
# bounds it.
_GRID_INDEXES = {
    "grid": (("row_id", "grid_rows"), ("col_id", "grid_cols")),
    "gridod": (
        ("origin_row_id", "grid_rows"), ("origin_col_id", "grid_cols"),
        ("des_row_id", "grid_rows"), ("des_col_id", "grid_cols"),
    ),
}


def _check_grid(ds: AtomicDataset, table: Table, ok, found: list):
    bounds = [
        (attr, table.field(attr), getattr(ds.manifest, key))
        for attr, key in _GRID_INDEXES[table.kind]
    ]
    outside = np.zeros(len(table), dtype=bool)
    for _, column, bound in bounds:
        outside |= column.flags(lambda v: _whole(v) and not 0 <= v < bound)

    def message(i):
        return "; ".join(
            f"{attr}={column.at(i)} outside [0, {bound})"
            for attr, column, bound in bounds
            if not 0 <= column.at(i) < bound
        )

    _found(found, table.kind, ok & outside, 0, "error", message)
    return ()


def _check_od(ds: AtomicDataset, table: Table, ok, found: list):
    return [
        (
            ok, table.field(side), "order", rank, side + " {!r} not in " + _ordering(ds),
            ".geo table absent; origin/destination unresolvable",
        )
        for rank, side in enumerate(("origin_id", "des_id"))
    ]


def _ordering(ds: AtomicDataset) -> str:
    """The name findings give the geo ordering that state and od rows index."""
    return ".geo" if ds.manifest.geo_order is None else "the manifest geo_order"


# Per kind with rules across tables: its check.
_CROSS_CHECKS = dict(rel=_check_rel, dyna=_check_dyna, grid=_check_grid, od=_check_od,
                     gridod=_check_grid)


def validate_dataset(ds: AtomicDataset) -> ValidationReport:
    """Cross-check referential and domain invariants over in-memory tables.

    Errors: duplicate identifiers, out-of-domain enum values (each kind's
    types are the reader's) and malformed geometry, all three in a table that
    is not :attr:`~stkit.atomic.Table.checked` (the reader refused them in
    one that is); in every table, dangling references into present tables,
    grid indices outside the manifest bounds, manifest ``geo_order`` ids
    absent from ``.geo``, and state and od rows naming a geo id outside
    :meth:`AtomicDataset.geo_order`, the ordering their tensors use.
    Warnings: references into absent tables and non-monotone trajectory
    timestamps (tensorization sorts, so these are survivable). Findings come
    out in table order, the manifest first, then row order; a table's
    warnings about absent tables come before its rows' findings.
    """
    pools = {
        "geo": set(ds.geo.field("geo_id").tolist()) if ds.geo else None,
        "usr": set(ds.usr.field("usr_id").tolist()) if ds.usr else None,
        "order": set(ds.geo_order()) if ds.geo else None,  # what state and od rows index
    }
    unknown = [g for g in ds.manifest.geo_order or () if g not in (pools["geo"] or ())]
    out = [Finding("error", "manifest", None, f"geo_order names {g!r}, which is not in .geo")
           for g in unknown]
    for kind in MANDATORY_COLUMNS:
        table = getattr(ds, kind)
        if not table:
            continue
        if any(getattr(ds.manifest, key) is None for _, key in _GRID_INDEXES.get(kind, ())):
            message = "manifest lacks grid_rows/grid_cols but grid-indexed rows exist"
            out.append(Finding("error", kind, None, message))  # its rows go unchecked
            continue
        found: list = []
        ok = np.ones(len(table), dtype=bool) if table.checked else _own_rules(table, found)
        if kind in _CROSS_CHECKS:
            _references(found, kind, _CROSS_CHECKS[kind](ds, table, ok, found), pools)
        found.sort(key=lambda f: f[0])
        out.extend(finding for _, finding in found)
    return ValidationReport(out)


def load_dataset(path: Union[str, Path], validate: bool = True) -> AtomicDataset:
    """Load a dataset directory; raise ValidationFailed if errors are found.

    Tables are discovered as ``<name>.<suffix>`` next to ``manifest.json``,
    where ``<name>`` comes from the manifest, and read with
    :func:`~stkit.atomic.read_table`.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise MissingManifest(f"no manifest.json in {root}")
    try:
        payload = json.loads(manifest_path.read_text("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise BadManifest(f"manifest.json is not JSON: {exc}", table="manifest") from None
    manifest = Manifest.from_json(payload)
    paths = {kind: root / f"{manifest.name}.{kind}" for kind in MANDATORY_COLUMNS}
    tables = {}
    for kind, path in paths.items():
        if path.is_file():
            with path.open("rb") as f:  # the bytes go once the text is decoded
                tables[kind] = read_table(kind, f)
    ds = AtomicDataset(manifest, **tables)
    if validate:
        report = validate_dataset(ds)
        if not report.ok:
            raise ValidationFailed(report)
    return ds


def save_dataset(ds: AtomicDataset, path: Union[str, Path]) -> Path:
    """Write manifest and all non-empty tables into a directory."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_json(root / "manifest.json", ds.manifest.to_json())
    for kind, records in ds.tables().items():
        (root / f"{ds.manifest.name}.{kind}").write_bytes(write_table(kind, records))
    return root


@dataclass
class RawConversionSpec:
    """Column mapping that turns an external flat CSV into atomic tables.

    ``target`` picks the output shape: ``"state"`` emits per-entity state
    rows (entity column holds the sensor/location id), ``"trajectory"`` emits
    per-user visit rows and a .geo point per distinct coordinate pair.
    """

    target: str  # "state" | "trajectory"
    time_column: str
    entity_column: str
    lat_column: str | None = None
    lon_column: str | None = None
    property_columns: tuple[str, ...] = ()
    time_format: str | None = None  # strptime format; None means ISO-8601 Z
    name: str = "converted"

    @classmethod
    def from_json(cls, payload: Mapping) -> "RawConversionSpec":
        """The spec of a ``conversion`` config object. A missing required
        field raises KeyError; a value of the wrong kind BadConfigFile naming
        ``conversion.<field>``. ``property_columns`` is a list of strings that
        the dyna header takes as its properties, ``name`` a plain file name,
        and every other field a string (None if its default is)."""
        columns = payload.get("property_columns", [])
        if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
            raise BadConfigFile(
                f"config key conversion.property_columns: expected a list of strings, "
                f"got {columns!r}"
            )
        if fault := _property_fault("dyna", columns):
            raise BadConfigFile(f"config key conversion.property_columns: {fault}")
        spec = cls(
            target=payload["target"],
            time_column=payload["time_column"],
            entity_column=payload["entity_column"],
            lat_column=payload.get("lat_column"),
            lon_column=payload.get("lon_column"),
            property_columns=tuple(columns),
            time_format=payload.get("time_format"),
            name=payload.get("name", "converted"),
        )
        for f in fields(cls):
            value, nullable = getattr(spec, f.name), f.default is None
            if f.name != "property_columns" and not (
                isinstance(value, str) or (nullable and value is None)
            ):
                want = "a string or null" if nullable else "a string"
                raise BadConfigFile(
                    f"config key conversion.{f.name}: expected {want}, got {value!r}"
                )
        if fault := _name_fault(spec.name):
            raise BadConfigFile(f"config key conversion.name: {fault}")
        return spec


def _strptime_cell(cell: str, table, row, column, time_format: str) -> datetime:
    """A raw time cell read by ``time_format`` as UTC, unless it reads an offset."""
    try:
        dt = datetime.strptime(cell, time_format)
        return dt.replace(tzinfo=dt.tzinfo or timezone.utc).astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise BadTimestamp(str(exc), table=table, row=row, column=column) from None


def _degrees(cell: str, table, row, column, limit: float) -> float:
    """A raw coordinate cell as a float within [-limit, limit]: a number as
    the reader types one (ASCII digits; no ``_``, space, ``inf`` or ``nan``)."""
    if not _FLOAT_RE.fullmatch(cell):
        fault = f"could not convert string to float: {cell!r}"
    elif not -limit <= (value := float(cell)) <= limit:
        fault = f"coordinate {value} outside [-{limit:g}, {limit:g}]"
    else:
        return value
    raise BadCoordinate(fault, table=table, row=row, column=column)


def convert_raw_csv(spec: RawConversionSpec, source: Union[bytes, str]) -> AtomicDataset:
    """Convert one flat CSV into an AtomicDataset under the given mapping.

    Read as :func:`~stkit.atomic.read_table` reads a table: encoded into
    columns, each distinct cell of a mapped column checked once. Lon and lat
    are mapped for a trajectory, and for a state target that sets both (else
    its points are [0, 0]). Raises UnmappedMandatoryColumn when a mapped
    column is missing from the raw header, MissingColumn when the header
    repeats one, and a ParseError located at the raw row and column of the
    first fault by row, then by time, entity, lon and lat: a ragged row (a
    short one names its first missing column), a bad time cell or one
    outside the years 1 to 9999 in UTC, an empty entity cell, a coordinate
    that is not a number in range, or a byte that is not UTF-8. Blank lines
    are skipped. A state entity's point is its first row's; equal trajectory
    points share one id and their first row's coordinates. The output passes
    :func:`validate_dataset` with zero errors.
    """
    if spec.target not in ("state", "trajectory"):
        raise BadConfigFile(f"conversion target {spec.target!r} is not 'state' or 'trajectory'")
    text = _read_text(source, "raw")
    if not text:
        raise UnmappedMandatoryColumn("raw CSV has no header row")
    header, columns, ordinals, ragged = _columns(text, "raw")
    mapped = dict(zip(header, columns))
    points = spec.target == "trajectory" or None not in (spec.lat_column, spec.lon_column)
    needed = [spec.time_column, spec.entity_column, *spec.property_columns]
    if points:
        needed[2:2] = [spec.lat_column, spec.lon_column]
    for name in needed:
        if name is None:
            raise UnmappedMandatoryColumn(
                "trajectory conversion requires lat_column and lon_column"
            )
        if name not in mapped:
            raise UnmappedMandatoryColumn(f"raw CSV has no column {name!r}")
        if header.count(name) > 1:
            raise MissingColumn(f"column {name!r} is repeated", table="raw", column=name)

    width, failures = len(header), []
    n = len(columns[0].codes)

    def decode(position: int, name: str, check, state: bool = False) -> Column:
        """Column ``name`` decoded by ``check``; ``state``: only entities' first cells."""
        column = mapped[name]
        if state:
            column = Column(column.codes[first][entities.codes], column.values)
        column, fault = _decode(column, check, "raw", name)
        if fault is not None:
            failures.append((fault[0], position, fault[1]))
        return column

    times = decode(0, spec.time_column, _TIME if spec.time_format is None
                   else partial(_strptime_cell, time_format=spec.time_format))
    entities = decode(1, spec.entity_column, _ID)
    first = np.unique(entities.codes, return_index=True)[1]  # each entity's first row
    lons = lats = _constant(0.0, n)
    if points:
        state = spec.target == "state"
        lons = decode(2, spec.lon_column, partial(_degrees, limit=180.0), state)
        lats = decode(3, spec.lat_column, partial(_degrees, limit=90.0), state)
    if ragged is not None:
        row, count = ragged
        ragged = RaggedRow(f"row has {count} cells, header has {width}", table="raw", row=row,
                           column=header[count] if count < width else None)
    _raise_first(failures, ordinals, ragged)

    if spec.target == "state":
        ids, location, usr = entities.values, _constant(None, n), ()
    else:
        points = _pairs(lons, lats)  # pairs that compare equal share a code
        first = np.unique(points.codes, return_index=True)[1]
        order = np.argsort(first)  # the points in order of their first row
        ids, first = _ids("p", len(order)), first[order]
        location = Column(np.argsort(order)[points.codes], ids)
        usr = Table("usr", {"usr_id": entities.values})
    geo = Table("geo", dict(geo_id=ids, geo_type=_constant("Point", len(ids)), coordinates=[
        ((lons.at(r), lats.at(r)),) for r in first.tolist()]))
    dyna = Table("dyna", dict(
        dyna_id=_ids("d", n), dyna_type=_constant(spec.target, n), time=times,
        entity_id=entities, location=location,
    ), {name: Column(mapped[name].codes, list(map(_coerce_scalar, mapped[name].values)))
        for name in spec.property_columns})
    manifest = Manifest(name=spec.name, features=tuple(spec.property_columns))
    return AtomicDataset(manifest, geo=geo, usr=usr, dyna=dyna)


def dataset_stats(ds: AtomicDataset) -> dict:
    """Row counts, time extent, and feature coverage, JSON-friendly."""
    stats: dict = {"name": ds.manifest.name, "tables": {}}
    times = []
    for kind, rows in ds.tables().items():
        stats["tables"][kind] = len(rows)
        if kind in ("dyna", "grid", "od", "gridod", "ext"):
            times.extend(rows.field("time").present())
    if times:
        stats["time_min"] = format_timestamp(min(times))
        stats["time_max"] = format_timestamp(max(times))
    if ds.manifest.features:
        stats["features"] = list(ds.manifest.features)
    if ds.manifest.interval_seconds:
        stats["interval_seconds"] = ds.manifest.interval_seconds
    if ds.manifest.grid_rows is not None:
        stats["grid_shape"] = [ds.manifest.grid_rows, ds.manifest.grid_cols]
    return stats
