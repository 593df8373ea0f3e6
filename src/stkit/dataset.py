"""Dataset directories: manifest, loading, validation, and raw-CSV conversion.

A dataset is a directory holding ``manifest.json`` plus one file per table
kind, named ``<name>.<suffix>``. The manifest pins the metadata that the
tables cannot express on their own: sampling interval, grid shape, declared
feature columns, and (optionally) an explicit geo ordering.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .atomic import (
    DYNA_TYPES,
    GEO_TYPES,
    MANDATORY_COLUMNS,
    REL_TYPES,
    Column,
    DynaRecord,
    GeoUnit,
    Scalar,
    Table,
    UserUnit,
    as_table,
    format_timestamp,
    repeats,
    parse_timestamp,
    read_table,
    write_table,
)
from .atomic import _check_coord_ranges  # shared range rule
from .exceptions import (
    MissingManifest,
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
        return cls(
            name=str(payload["name"]),
            interval_seconds=payload.get("interval_seconds"),
            grid_rows=payload.get("grid_rows"),
            grid_cols=payload.get("grid_cols"),
            features=tuple(payload.get("features", ())),
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


@dataclass
class AtomicDataset:
    """All tables of one dataset plus its manifest, held in memory.

    Each table is a record list or, as :func:`load_dataset` gives it, a
    :class:`~stkit.atomic.Table` that builds its records only when asked.
    """

    manifest: Manifest
    geo: list | Table = field(default_factory=list)
    usr: list | Table = field(default_factory=list)
    rel: list | Table = field(default_factory=list)
    dyna: list | Table = field(default_factory=list)
    grid: list | Table = field(default_factory=list)
    od: list | Table = field(default_factory=list)
    gridod: list | Table = field(default_factory=list)
    ext: list | Table = field(default_factory=list)

    def tables(self) -> dict[str, list | Table]:
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
        return tuple(as_table("geo", self.geo).field("geo_id").tolist())


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


def _rows(table: Table, *attrs):
    """(1-based row, tuple of the named fields) per row, in order."""
    return enumerate(zip(*(table.field(a).tolist() for a in attrs)), start=1)


def _repeats(column: Column) -> np.ndarray:
    """Per row, whether an earlier row holds an equal value."""
    values, keys = column.values, column.codes
    if len(set(values)) < len(values):  # equal values under different codes
        canon: dict = {}
        first = [canon.setdefault(v, k) for k, v in enumerate(values)]
        keys = np.array(first, dtype=np.intp)[keys]
    return repeats(keys)


def _found(found: list, table, rows, rank: int, severity, message, column=None):
    """Add a finding at each flagged row; ``rank`` orders findings within a row.

    ``message`` is a function of the row, or a format string for the row's
    value in ``column``.
    """
    for i in np.flatnonzero(rows).tolist():
        text = message(i) if column is None else message.format(column.at(i))
        found.append((i, rank, Finding(severity, table, i + 1, text)))


def _emit(out: list[Finding], found: list) -> None:
    """Append the findings in row order, and by rank within a row."""
    found.sort(key=lambda f: f[:2])
    out.extend(f[-1] for f in found)


def _check_geo(ds: AtomicDataset, out: list[Finding]):
    seen: set[str] = set()
    geo = as_table("geo", ds.geo)
    for i, (geo_id, geo_type, coordinates) in _rows(
        geo, "geo_id", "geo_type", "coordinates"
    ):
        if geo_id in seen:
            out.append(Finding("error", "geo", i, f"duplicate geo_id {geo_id!r}"))
            continue
        seen.add(geo_id)
        if geo_type not in GEO_TYPES:
            out.append(Finding("error", "geo", i, f"unknown geo type {geo_type!r}"))
            continue
        problems = []
        if geo_type == "Point" and len(coordinates) != 1:
            problems.append("Point must have exactly one coordinate pair")
        if geo_type == "LineString" and len(coordinates) < 2:
            problems.append("LineString needs at least two points")
        if geo_type == "Polygon":
            if len(coordinates) < 4:
                problems.append("Polygon ring needs at least four points")
            elif coordinates[0] != coordinates[-1]:
                problems.append("Polygon ring must close (first == last)")
        try:
            _check_coord_ranges(coordinates)
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            out.append(Finding("error", "geo", i, "; ".join(problems)))


def _check_usr(ds: AtomicDataset, out: list[Finding]):
    seen: set[str] = set()
    for i, (usr_id,) in _rows(as_table("usr", ds.usr), "usr_id"):
        if usr_id in seen:
            out.append(Finding("error", "usr", i, f"duplicate usr_id {usr_id!r}"))
        seen.add(usr_id)


def _check_rel(ds: AtomicDataset, out: list[Finding], geo_ids, usr_ids):
    seen: set[str] = set()
    missing_side_warned: set[str] = set()
    rel = as_table("rel", ds.rel)
    for i, (rel_id, rel_type, origin_id, des_id) in _rows(
        rel, "rel_id", "rel_type", "origin_id", "des_id"
    ):
        if rel_id in seen:
            out.append(Finding("error", "rel", i, f"duplicate rel_id {rel_id!r}"))
            continue
        seen.add(rel_id)
        if rel_type not in REL_TYPES:
            out.append(
                Finding("error", "rel", i, f"unknown relation type {rel_type!r}")
            )
            continue
        origin_pool = usr_ids if rel_type in ("usr", "usr2geo") else geo_ids
        des_pool = geo_ids if rel_type in ("geo", "usr2geo") else usr_ids
        for side, value, pool, pool_name in (
            ("origin_id", origin_id, origin_pool, "usr" if rel_type in ("usr", "usr2geo") else "geo"),
            ("des_id", des_id, des_pool, "geo" if rel_type in ("geo", "usr2geo") else "usr"),
        ):
            if pool is None:
                if pool_name not in missing_side_warned:
                    missing_side_warned.add(pool_name)
                    out.append(
                        Finding(
                            "warning",
                            "rel",
                            None,
                            f"referenced .{pool_name} table absent; endpoints unresolvable",
                        )
                    )
            elif value not in pool:
                out.append(
                    Finding(
                        "error",
                        "rel",
                        i,
                        f"{side} {value!r} not found in .{pool_name}",
                    )
                )


def _check_dyna(ds: AtomicDataset, out: list[Finding], geo_ids, usr_ids):
    dyna = as_table("dyna", ds.dyna)
    ids, types, entities, locations, times = (
        dyna.field(a) for a in ("dyna_id", "dyna_type", "entity_id", "location", "time")
    )
    found: list = []
    repeat = _repeats(ids)
    _found(found, "dyna", repeat, 0, "error", "duplicate dyna_id {!r}", ids)
    bad_type = ~repeat & ~types.flags(lambda v: v in DYNA_TYPES)
    _found(found, "dyna", bad_type, 0, "error", "unknown dyna type {!r}", types)
    state = types.flags(lambda v: v == "state") & ~repeat
    traj = types.flags(lambda v: v == "trajectory") & ~repeat
    # A warning about an absent table is given once, where its first row is.
    absent = []
    for rows, column, pool, rank, warning, error in (
        (
            state, entities, geo_ids, 0,
            "state rows present but .geo table absent; entities unresolvable",
            "entity_id {!r} not in .geo",
        ),
        (
            traj, entities, usr_ids, 0,
            "trajectory rows present but .usr table absent; entities unresolvable",
            "entity_id {!r} not in .usr",
        ),
        (
            traj & locations.flags(lambda v: v is not None), locations, geo_ids, 1,
            "location column present but .geo table absent",
            "location {!r} not in .geo",
        ),
    ):
        if pool is None:
            if rows.any():
                first = int(np.argmax(rows))
                absent.append((first, rank, Finding("warning", "dyna", None, warning)))
        else:
            dangling = rows & ~column.flags(lambda v: v in pool)
            _found(found, "dyna", dangling, rank, "error", error, column)
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
            found.append((i, 2, Finding("warning", "dyna", i + 1, message)))
        last_time[entity] = time
    _emit(out, absent)
    _emit(out, found)


def _check_grid_like(ds: AtomicDataset, out: list[Finding]):
    rows, cols = ds.manifest.grid_rows, ds.manifest.grid_cols
    for kind, index_fields in (
        ("grid", (("row_id", "grid_rows"), ("col_id", "grid_cols"))),
        (
            "gridod",
            (
                ("origin_row_id", "grid_rows"),
                ("origin_col_id", "grid_cols"),
                ("des_row_id", "grid_rows"),
                ("des_col_id", "grid_cols"),
            ),
        ),
    ):
        table = as_table(kind, getattr(ds, kind))
        if not len(table):
            continue
        if rows is None or cols is None:
            out.append(
                Finding(
                    "error",
                    kind,
                    None,
                    "manifest lacks grid_rows/grid_cols but grid-indexed rows exist",
                )
            )
            continue
        ids = table.field("dyna_id")
        found: list = []
        repeat = _repeats(ids)
        _found(found, kind, repeat, 0, "error", "duplicate dyna_id {!r}", ids)
        bounds = [
            (attr, table.field(attr), rows if bound_name == "grid_rows" else cols)
            for attr, bound_name in index_fields
        ]
        outside = np.zeros(len(table), dtype=bool)
        for _, column, bound in bounds:
            outside |= column.flags(lambda v: not 0 <= v < bound)

        def message(i):
            return "; ".join(
                f"{attr}={column.at(i)} outside [0, {bound})"
                for attr, column, bound in bounds
                if not 0 <= column.at(i) < bound
            )

        _found(found, kind, outside & ~repeat, 0, "error", message)
        _emit(out, found)


def _check_od(ds: AtomicDataset, out: list[Finding], geo_ids):
    od = as_table("od", ds.od)
    ids = od.field("dyna_id")
    found: list = []
    repeat = _repeats(ids)
    _found(found, "od", repeat, 0, "error", "duplicate dyna_id {!r}", ids)
    if geo_ids is None:
        if len(od):
            out.append(
                Finding(
                    "warning",
                    "od",
                    None,
                    ".geo table absent; origin/destination unresolvable",
                )
            )
    else:
        for rank, side in enumerate(("origin_id", "des_id")):
            column = od.field(side)
            dangling = ~repeat & ~column.flags(lambda v: v in geo_ids)
            message = side + " {!r} not in .geo"
            _found(found, "od", dangling, rank, "error", message, column)
    _emit(out, found)


def _check_ext(ds: AtomicDataset, out: list[Finding]):
    seen: set = set()
    for i, key in _rows(as_table("ext", ds.ext), "ext_id", "time"):
        if key in seen:
            out.append(
                Finding(
                    "error",
                    "ext",
                    i,
                    f"duplicate (ext_id, time) pair {key[0]!r} @ {key[1].isoformat()}",
                )
            )
        seen.add(key)


def validate_dataset(ds: AtomicDataset) -> ValidationReport:
    """Cross-check referential and domain invariants over in-memory tables.

    Errors: duplicate identifiers, out-of-domain enum values, malformed
    geometry, dangling references into present tables, grid indices outside
    the manifest bounds. Warnings: references into absent tables and
    non-monotone trajectory timestamps (tensorization sorts, so these are
    survivable). Findings come out in table order, then row order.
    """
    out: list[Finding] = []
    geo_ids = set(as_table("geo", ds.geo).field("geo_id").tolist()) if ds.geo else None
    usr_ids = set(as_table("usr", ds.usr).field("usr_id").tolist()) if ds.usr else None
    _check_geo(ds, out)
    _check_usr(ds, out)
    _check_rel(ds, out, geo_ids, usr_ids)
    _check_dyna(ds, out, geo_ids, usr_ids)
    _check_grid_like(ds, out)
    _check_od(ds, out, geo_ids)
    _check_ext(ds, out)
    order = {kind: k for k, kind in enumerate(MANDATORY_COLUMNS)}
    out.sort(key=lambda f: (order[f.table], f.row if f.row is not None else 0))
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
    manifest = Manifest.from_json(json.loads(manifest_path.read_text("utf-8")))
    ds = AtomicDataset(manifest=manifest)
    for kind in MANDATORY_COLUMNS:
        table_path = root / f"{manifest.name}.{kind}"
        if table_path.is_file():
            setattr(ds, kind, read_table(kind, table_path.read_bytes()))
    if validate:
        report = validate_dataset(ds)
        if not report.ok:
            raise ValidationFailed(report)
    return ds


def save_dataset(ds: AtomicDataset, path: Union[str, Path]) -> Path:
    """Write manifest and all non-empty tables into a directory."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").write_text(
        json.dumps(ds.manifest.to_json(), indent=2, sort_keys=True) + "\n", "utf-8"
    )
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
        return cls(
            target=payload["target"],
            time_column=payload["time_column"],
            entity_column=payload["entity_column"],
            lat_column=payload.get("lat_column"),
            lon_column=payload.get("lon_column"),
            property_columns=tuple(payload.get("property_columns", ())),
            time_format=payload.get("time_format"),
            name=payload.get("name", "converted"),
        )


def _parse_raw_time(cell: str, spec: RawConversionSpec):
    from datetime import datetime, timezone

    if spec.time_format is None:
        return parse_timestamp(cell)
    dt = datetime.strptime(cell, spec.time_format)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def convert_raw_csv(spec: RawConversionSpec, source: Union[bytes, str]) -> AtomicDataset:
    """Convert one flat CSV into an AtomicDataset under the given mapping.

    Raises UnmappedMandatoryColumn when a mapped column is missing from the
    raw header. The output passes :func:`validate_dataset` with zero errors.
    """
    if spec.target not in ("state", "trajectory"):
        raise ValueError(f"unknown conversion target {spec.target!r}")
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise UnmappedMandatoryColumn("raw CSV has no header row")
    header = rows[0]
    col_index = {name: i for i, name in enumerate(header)}
    needed = [spec.time_column, spec.entity_column]
    if spec.target == "trajectory":
        needed += [spec.lat_column, spec.lon_column]
    needed += list(spec.property_columns)
    for name in needed:
        if name is None:
            raise UnmappedMandatoryColumn(
                "trajectory conversion requires lat_column and lon_column"
            )
        if name not in col_index:
            raise UnmappedMandatoryColumn(f"raw CSV has no column {name!r}")

    lat_i = col_index.get(spec.lat_column) if spec.lat_column else None
    lon_i = col_index.get(spec.lon_column) if spec.lon_column else None
    from .atomic import _coerce_scalar

    ds = AtomicDataset(
        manifest=Manifest(name=spec.name, features=tuple(spec.property_columns))
    )
    if spec.target == "state":
        entity_coord: dict[str, tuple[float, float] | None] = {}
        for n, row in enumerate(rows[1:]):
            time = _parse_raw_time(row[col_index[spec.time_column]], spec)
            entity = row[col_index[spec.entity_column]]
            if entity not in entity_coord:
                coord = None
                if lat_i is not None and lon_i is not None:
                    coord = (float(row[lon_i]), float(row[lat_i]))
                entity_coord[entity] = coord
            props: dict[str, Scalar] = {
                c: _coerce_scalar(row[col_index[c]]) for c in spec.property_columns
            }
            ds.dyna.append(DynaRecord(f"d{n}", "state", time, entity, None, props))
        for entity, coord in entity_coord.items():
            ds.geo.append(
                GeoUnit(entity, "Point", (coord if coord else (0.0, 0.0),), {})
            )
    else:
        point_ids: dict[tuple[float, float], str] = {}
        users: dict[str, None] = {}
        for n, row in enumerate(rows[1:]):
            time = _parse_raw_time(row[col_index[spec.time_column]], spec)
            user = row[col_index[spec.entity_column]]
            users.setdefault(user)
            coord = (float(row[lon_i]), float(row[lat_i]))
            point = point_ids.setdefault(coord, f"p{len(point_ids)}")
            props = {c: _coerce_scalar(row[col_index[c]]) for c in spec.property_columns}
            ds.dyna.append(DynaRecord(f"d{n}", "trajectory", time, user, point, props))
        for coord, pid in point_ids.items():
            ds.geo.append(GeoUnit(pid, "Point", (coord,), {}))
        for user in users:
            ds.usr.append(UserUnit(user, {}))
    return ds


def dataset_stats(ds: AtomicDataset) -> dict:
    """Row counts, time extent, and feature coverage, JSON-friendly."""
    stats: dict = {"name": ds.manifest.name, "tables": {}}
    times = []
    for kind, rows in ds.tables().items():
        stats["tables"][kind] = len(rows)
        if kind in ("dyna", "grid", "od", "gridod", "ext"):
            times.extend(as_table(kind, rows).field("time").present())
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
