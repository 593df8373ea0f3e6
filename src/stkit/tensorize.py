"""Turn validated tables into dense tensors, masks, and graph structures.

The tensorize functions take a :class:`~stkit.atomic.Table` or a record
list, which is put behind the same columns, and scatter rows from their
codes: each distinct cell value is looked up or converted once.

All dynamic tensors share the convention: axis 0 is time (slot index on a
fixed-interval axis), spatial axes follow, features come last. Unobserved
cells hold value 0 with mask 0; two records addressing the same cell are a
hard error, never a silent overwrite.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import (
    _MISSING,
    Column,
    DynaRecord,
    GridRecord,
    ODRecord,
    Table,
    as_table,
    format_timestamp,
    repeats,
)
from .exceptions import (
    BadFeatureValue,
    DuplicateCell,
    EmptyTable,
    NegativeWeight,
    NonAlignedTimestamp,
    UnknownEntity,
)

__all__ = [
    "TimeAxis",
    "build_time_axis",
    "STTensor",
    "MaskTensor",
    "GridODTensor",
    "dyna_to_graph_tensor",
    "grid_to_tensor",
    "od_to_tensor",
    "gridod_to_tensor",
    "build_adjacency",
    "TrajPoint",
    "Trajectory",
    "build_trajectories",
    "scatter_tensor",
    "dump_tensor_csv",
]


@dataclass(frozen=True)
class TimeAxis:
    """Uniform time grid: ``slot k`` covers ``start + k*interval``."""

    start: datetime
    interval: int  # seconds
    length: int

    def slot_of(self, t: datetime) -> int:
        """Map a timestamp to its slot; off-grid times are an error."""
        delta = (t - self.start).total_seconds()
        slots, rem = divmod(delta, self.interval)
        if rem != 0.0:
            raise NonAlignedTimestamp(
                f"{format_timestamp(t)} is {rem:.0f}s off the {self.interval}s grid "
                f"anchored at {format_timestamp(self.start)}"
            )
        slot = int(slots)
        if not 0 <= slot < self.length:
            raise ValueError(f"slot {slot} outside [0, {self.length})")
        return slot

    def time_of(self, slot: int) -> datetime:
        return self.start + timedelta(seconds=slot * self.interval)

    def fraction_of_day(self, slot: int) -> float:
        """Time of day in [0, 1): seconds since UTC midnight over 86400."""
        t = self.time_of(slot)
        seconds = t.hour * 3600 + t.minute * 60 + t.second
        return seconds / 86400.0


def build_time_axis(records: Iterable, interval: int) -> TimeAxis:
    """Derive the axis covering all record times at the given interval.

    The axis starts at the earliest time floored onto the epoch-anchored
    interval grid. Every record must then land exactly on a slot boundary;
    the first off-grid record raises NonAlignedTimestamp.
    """
    if interval <= 0:
        raise ValueError("interval must be positive seconds")
    # Distinct times in order of first appearance; datetime has a .time()
    # method, so the isinstance check must win.
    times = dict.fromkeys(
        rec if isinstance(rec, datetime) else rec.time for rec in records
    )
    if not times:
        raise EmptyTable("cannot build a time axis from zero records")
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    first = min(times)
    offset = int((first - epoch).total_seconds())
    start = epoch + timedelta(seconds=offset - offset % interval)
    length = int((max(times) - start).total_seconds()) // interval + 1
    axis = TimeAxis(start=start, interval=interval, length=length)
    for t in times:
        axis.slot_of(t)  # alignment check; raises on the first offender
    return axis


@dataclass
class STTensor:
    """Dense spatio-temporal tensor plus the metadata to read it back.

    ``layout`` is one of ``graph`` ([T, N, D]), ``grid`` ([T, I, J, D]) or
    ``od`` ([T, N, N, D]).
    """

    layout: str
    values: np.ndarray
    time_axis: TimeAxis
    feature_names: tuple[str, ...]
    geo_order: tuple[str, ...] | None = None
    grid_shape: tuple[int, int] | None = None

    @property
    def shape(self):
        return self.values.shape


@dataclass
class MaskTensor:
    """Boolean observation mask, same shape as its value tensor."""

    values: np.ndarray

    @property
    def shape(self):
        return self.values.shape


def _feature_number(value) -> float | None:
    """A typed property value as a tensor value; None when unobserved.

    Raises ValueError for a value that is not a number and OverflowError for
    an int beyond float range.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    raise ValueError(value)


def _bad_feature(table: Table, column: Column, name: str, row: int):
    value = column.at(row)
    if value is _MISSING:
        message = f"record {table[row]!r} lacks declared feature column {name!r}"
    elif isinstance(value, int):
        message = f"feature {name!r} has value {value!r} too large for a float"
    else:
        message = f"feature {name!r} has non-numeric value {value!r}"
    raise BadFeatureValue(
        message, table=table.kind, row=table.ordinal(row), column=name
    )


def _features(table: Table, features):
    """[n, D] feature values (0 where unobserved), observed flags, and one
    check per feature. Each distinct value of a column converts once."""
    n, D = len(table), len(features)
    values = np.zeros((n, D), dtype=np.float64)
    observed = np.zeros((n, D), dtype=bool)
    checks = []
    for d, name in enumerate(features):
        column = table.prop(name)
        numbers, seen, bad = [], [], []
        for value in column.values:
            try:
                number = _feature_number(value)
            except (ValueError, OverflowError):
                number = None
            numbers.append(0.0 if number is None else number)
            seen.append(number is not None)
            bad.append(number is None and value is not None)
        values[:, d] = np.array(numbers, dtype=np.float64)[column.codes]
        observed[:, d] = np.array(seen, dtype=bool)[column.codes]
        failed = np.array(bad, dtype=bool)[column.codes]
        checks.append((failed, partial(_bad_feature, table, column, name)))
    return values, observed, checks


def _positions(column: Column, index: Mapping) -> np.ndarray:
    """Per row, ``index[value]``; -1 where the value is not in ``index``."""
    found = [index.get(v, -1) for v in column.values]
    return np.array(found, dtype=np.intp)[column.codes]


def _indices(column: Column, bound: int) -> np.ndarray:
    """Per row, the value as an index below ``bound``; -1 where it is not one."""
    found = [v if 0 <= v < bound else -1 for v in column.values]
    return np.array(found, dtype=np.intp)[column.codes]


def _unknown_entity(column: Column, row: int):
    raise UnknownEntity(f"entity {column.at(row)!r} not in the geo ordering")


def _first_failure(n: int, checks) -> tuple[int, int | None]:
    """(row, check index) of the first failing row; at one row the earlier
    check wins. ``(n, None)`` when no row fails."""
    row, which = n, None
    for k, (failed, _) in enumerate(checks):
        hits = np.flatnonzero(failed[:row])
        if hits.size:
            row, which = int(hits[0]), k
    return row, which


def _scatter(table: Table, axis, shape, spatial, checks, features, describe):
    """Place each row on the [T, *shape] grid from its codes, in file order.

    ``spatial`` holds one per-row index array per axis of ``shape``;
    ``checks`` are (per-row failure flags, raise_at(row)) pairs, in the order
    a row's cells are looked at. Returns the rows' [1 + len(shape), n] keys
    (slot first), their linear cell indices, and their [n, D] feature values
    (0 where unobserved) with observed flags. The first offending row raises
    what a per-row loop would: its first failing check, then an off-grid
    time, then DuplicateCell naming ``describe(row, key)`` if an earlier row
    holds its cell, then a missing or non-numeric feature.
    """
    times = table.field("time")
    slot_of: dict[datetime, int] = {}
    for t in times.values:
        if t not in slot_of:
            try:
                slot_of[t] = axis.slot_of(t)
            except (NonAlignedTimestamp, ValueError):
                slot_of[t] = -1
    slots = np.array([slot_of[t] for t in times.values], dtype=np.intp)[times.codes]
    values, observed, feature_checks = _features(table, features)

    def off_grid(row):
        axis.slot_of(times.at(row))

    checks = [*checks, (slots < 0, off_grid), *feature_checks]
    row, which = _first_failure(len(table), checks)
    # The rows before the failing one hold cells, and so does the failing
    # row itself when only a feature failed: a repeat among them is reported.
    feature_failed = which is not None and which >= len(checks) - len(features)
    keyed = row + 1 if feature_failed else row
    keys = np.stack([slots[:keyed], *(s[:keyed] for s in spatial)])
    lin = np.ravel_multi_index(keys, (axis.length, *shape))
    repeat = repeats(lin)
    if repeat.any():
        i = int(np.argmax(repeat))
        key = tuple(keys[:, i].tolist())
        raise DuplicateCell(f"second record for {describe(i, key)}")
    if which is not None:
        checks[which][1](row)
    return keys, lin, values, observed


def _dense(layout, table, axis, shape, spatial, checks, features, describe, **meta):
    """Scatter a table into an STTensor of [T, *shape, D] and its mask."""
    _, lin, cell_values, cell_observed = _scatter(
        table, axis, shape, spatial, checks, features, describe
    )
    shape = (axis.length, *shape, len(features))
    values = np.zeros(shape, dtype=np.float64)
    mask = np.zeros(shape, dtype=bool)
    values.reshape(-1, len(features))[lin] = cell_values
    mask.reshape(-1, len(features))[lin] = cell_observed
    tensor = STTensor(layout, values, axis, tuple(features), **meta)
    return tensor, MaskTensor(mask)


def dyna_to_graph_tensor(
    records: Table | Sequence[DynaRecord],
    geo_order: Sequence[str],
    axis: TimeAxis,
    features: Sequence[str],
) -> tuple[STTensor, MaskTensor]:
    """Scatter state rows into a [T, N, D] tensor over the geo ordering."""
    table = as_table("dyna", records)
    if not len(table):
        raise EmptyTable("no state records to tensorize")
    types, entities, times = map(table.field, ("dyna_type", "entity_id", "time"))
    index = {gid: i for i, gid in enumerate(geo_order)}
    position = _positions(entities, index)

    def not_state(row):
        raise ValueError(f"expected state rows, got {types.at(row)!r}")

    def describe(row, _):
        return f"entity {entities.at(row)!r} at {format_timestamp(times.at(row))}"

    checks = [
        (types.flags(lambda v: v != "state"), not_state),
        (position < 0, partial(_unknown_entity, entities)),
    ]
    order = tuple(geo_order)
    return _dense(
        "graph", table, axis, (len(order),), [position], checks, features, describe,
        geo_order=order,
    )


def grid_to_tensor(
    records: Table | Sequence[GridRecord],
    grid_shape: tuple[int, int],
    axis: TimeAxis,
    features: Sequence[str],
) -> tuple[STTensor, MaskTensor]:
    """Scatter grid rows into a [T, I, J, D] tensor."""
    table = as_table("grid", records)
    if not len(table):
        raise EmptyTable("no grid records to tensorize")
    I, J = grid_shape
    row_ids, col_ids, times = map(table.field, ("row_id", "col_id", "time"))
    rows, cols = _indices(row_ids, I), _indices(col_ids, J)

    def cell(row):
        return f"cell ({row_ids.at(row)}, {col_ids.at(row)})"

    def outside(row):
        raise UnknownEntity(f"{cell(row)} outside grid {grid_shape}")

    def describe(row, _):
        return f"{cell(row)} at {format_timestamp(times.at(row))}"

    checks = [((rows < 0) | (cols < 0), outside)]
    return _dense(
        "grid", table, axis, (I, J), [rows, cols], checks, features, describe,
        grid_shape=(I, J),
    )


def od_to_tensor(
    records: Table | Sequence[ODRecord],
    geo_order: Sequence[str],
    axis: TimeAxis,
    features: Sequence[str],
) -> tuple[STTensor, MaskTensor]:
    """Scatter origin-destination rows into a [T, N, N, D] tensor."""
    table = as_table("od", records)
    if not len(table):
        raise EmptyTable("no od records to tensorize")
    origins, dests, times = map(table.field, ("origin_id", "des_id", "time"))
    index = {gid: i for i, gid in enumerate(geo_order)}
    o, d = _positions(origins, index), _positions(dests, index)

    def describe(row, _):
        at = format_timestamp(times.at(row))
        return f"pair ({origins.at(row)!r}, {dests.at(row)!r}) at {at}"

    checks = [
        (o < 0, partial(_unknown_entity, origins)),
        (d < 0, partial(_unknown_entity, dests)),
    ]
    order = tuple(geo_order)
    N = len(order)
    return _dense(
        "od", table, axis, (N, N), [o, d], checks, features, describe, geo_order=order
    )


@dataclass
class GridODTensor:
    """Sparse [T, I, J, I, J, D] tensor; cells live in per-slot dicts.

    The five-dimensional spatial product is too large to hold dense at city
    scale, so values are stored per slot and densified on demand.
    """

    time_axis: TimeAxis
    grid_shape: tuple[int, int]
    feature_names: tuple[str, ...]
    cells: dict[int, dict[tuple[int, int, int, int, int], float]] = field(
        default_factory=dict
    )

    layout = "gridod"

    @property
    def shape(self):
        I, J = self.grid_shape
        return (self.time_axis.length, I, J, I, J, len(self.feature_names))

    def dense_slice(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Materialize one slot as ([I, J, I, J, D], bool mask)."""
        I, J = self.grid_shape
        values = np.zeros((I, J, I, J, len(self.feature_names)), dtype=np.float64)
        mask = np.zeros(values.shape, dtype=bool)
        for key, v in self.cells.get(slot, {}).items():
            values[key] = v
            mask[key] = True
        return values, mask

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the whole tensor; intended for small instances."""
        slices = [self.dense_slice(t) for t in range(self.time_axis.length)]
        return (
            np.stack([s[0] for s in slices]),
            np.stack([s[1] for s in slices]),
        )


def gridod_to_tensor(
    records: Table | Sequence,
    grid_shape: tuple[int, int],
    axis: TimeAxis,
    features: Sequence[str],
) -> GridODTensor:
    """Collect grid-to-grid rows into the sparse GridODTensor store."""
    table = as_table("gridod", records)
    if not len(table):
        raise EmptyTable("no gridod records to tensorize")
    I, J = grid_shape
    spatial, checks = [], []
    for attr, bound in (
        ("origin_row_id", I),
        ("origin_col_id", J),
        ("des_row_id", I),
        ("des_col_id", J),
    ):
        column = table.field(attr)

        def outside(row, attr=attr, column=column):
            raise UnknownEntity(f"{attr}={column.at(row)} outside grid {grid_shape}")

        spatial.append(_indices(column, bound))
        checks.append((spatial[-1] < 0, outside))

    def describe(_, key):
        return f"cells {key[1:]} at slot {key[0]}"

    keys, _, cell_values, cell_observed = _scatter(
        table, axis, (I, J, I, J), spatial, checks, features, describe
    )
    out = GridODTensor(axis, (I, J), tuple(features))
    for (slot, *base), row, seen in zip(
        keys.T.tolist(), cell_values.tolist(), cell_observed.tolist()
    ):
        bucket = out.cells.setdefault(slot, {})
        for d, (v, s) in enumerate(zip(row, seen)):
            if s:
                bucket[(*base, d)] = v
    return out


def build_adjacency(
    rel_records: Sequence,
    geo_order: Sequence[str],
    weight_property: str | None = None,
    symmetrize: bool = False,
    self_loops: bool = False,
) -> np.ndarray:
    """Build the [N, N] adjacency matrix from geo-to-geo relation rows.

    Rows with rel_type other than ``geo`` are ignored. Without a weight
    property every present edge gets weight 1; with one, empty cells default
    to 1 and negative weights raise. A repeated (origin, destination) pair is
    an error. ``symmetrize`` takes the elementwise max with the transpose.
    """
    index = {gid: i for i, gid in enumerate(geo_order)}
    N = len(geo_order)
    A = np.zeros((N, N), dtype=np.float64)
    seen: set[tuple[int, int]] = set()
    for rec in rel_records:
        if rec.rel_type != "geo":
            continue
        for side in (rec.origin_id, rec.des_id):
            if side not in index:
                raise UnknownEntity(f"entity {side!r} not in the geo ordering")
        edge = (index[rec.origin_id], index[rec.des_id])
        if edge in seen:
            raise DuplicateCell(
                f"duplicate edge ({rec.origin_id!r}, {rec.des_id!r})"
            )
        seen.add(edge)
        if weight_property is None:
            w = 1.0
        else:
            raw = rec.properties.get(weight_property)
            w = 1.0 if raw is None else float(raw)
            if w < 0:
                raise NegativeWeight(
                    f"edge ({rec.origin_id!r}, {rec.des_id!r}) has weight {w}"
                )
        A[edge] = w
    if symmetrize:
        A = np.maximum(A, A.T)
    if self_loops:
        np.fill_diagonal(A, np.maximum(A.diagonal(), 1.0))
    return A


@dataclass(frozen=True)
class TrajPoint:
    """One visit: optional location id, timestamp, extra properties."""

    location: str | None
    time: datetime
    properties: Mapping = field(default_factory=dict)


@dataclass
class Trajectory:
    """Time-ordered visit sequence of one moving entity."""

    user_id: str
    points: list[TrajPoint]

    def __len__(self):
        return len(self.points)


def build_trajectories(records: Sequence[DynaRecord]) -> list[Trajectory]:
    """Group trajectory rows by entity and sort each group by time.

    The sort is stable, so rows sharing a timestamp keep file order. Output
    trajectories appear in order of each entity's first row.
    """
    groups: dict[str, list[DynaRecord]] = {}
    for rec in records:
        if rec.dyna_type != "trajectory":
            raise ValueError(f"expected trajectory rows, got {rec.dyna_type!r}")
        groups.setdefault(rec.entity_id, []).append(rec)
    out = []
    for entity, rows in groups.items():
        rows = sorted(rows, key=lambda r: r.time)
        points = [TrajPoint(r.location, r.time, dict(r.properties)) for r in rows]
        out.append(Trajectory(entity, points))
    return out


def scatter_tensor(tensor: STTensor, mask: MaskTensor) -> list:
    """Inverse of tensorization: emit one record per observed spatial cell.

    Re-tensorizing the result reproduces values and mask exactly. Cells where
    only some features are observed come back with None for the others.
    """
    axis = tensor.time_axis
    features = tensor.feature_names
    records: list = []
    observed = mask.values.any(axis=-1)
    for flat_index in np.argwhere(observed):
        key = tuple(int(k) for k in flat_index)
        slot = key[0]
        props: dict = {}
        for d, name in enumerate(features):
            cell = key + (d,)
            props[name] = tensor.values[cell] if mask.values[cell] else None
        n = len(records)
        t = axis.time_of(slot)
        if tensor.layout == "graph":
            records.append(
                DynaRecord(f"d{n}", "state", t, tensor.geo_order[key[1]], None, props)
            )
        elif tensor.layout == "grid":
            records.append(GridRecord(f"d{n}", "state", t, key[1], key[2], props))
        elif tensor.layout == "od":
            records.append(
                ODRecord(
                    f"d{n}",
                    "state",
                    t,
                    tensor.geo_order[key[1]],
                    tensor.geo_order[key[2]],
                    props,
                )
            )
        else:
            raise ValueError(f"cannot scatter layout {tensor.layout!r}")
    return records


def dump_tensor_csv(tensor: STTensor, mask: MaskTensor) -> str:
    """Debug dump: one CSV line per tensor cell (slot, key..., feature, value, mask)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if tensor.layout == "graph":
        keys = ["entity"]
    elif tensor.layout == "grid":
        keys = ["row", "col"]
    elif tensor.layout == "od":
        keys = ["origin", "des"]
    else:
        raise ValueError(f"cannot dump layout {tensor.layout!r}")
    writer.writerow(["slot", *keys, "feature", "value", "mask"])
    shape = tensor.values.shape
    for flat in np.ndindex(*shape):
        slot, *spatial, d = flat
        if tensor.layout == "graph":
            labels = [tensor.geo_order[spatial[0]]]
        elif tensor.layout == "od":
            labels = [tensor.geo_order[spatial[0]], tensor.geo_order[spatial[1]]]
        else:
            labels = [str(spatial[0]), str(spatial[1])]
        writer.writerow(
            [
                slot,
                *labels,
                tensor.feature_names[d],
                repr(float(tensor.values[flat])),
                int(mask.values[flat]),
            ]
        )
    return out.getvalue()
