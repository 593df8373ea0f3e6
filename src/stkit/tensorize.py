"""Turn validated records into dense tensors, masks, and graph structures.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import DynaRecord, GridRecord, ODRecord, format_timestamp
from .exceptions import (
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


def _feature_value(rec, name: str):
    if name not in rec.properties:
        raise ValueError(
            f"record {rec!r} lacks declared feature column {name!r}"
        )
    v = rec.properties[name]
    if v is None:
        return None
    if isinstance(v, (int, float)):
        return float(v)
    raise ValueError(f"feature {name!r} has non-numeric value {v!r}")


def _scatter(records, axis, spatial_shape, features, locate, describe):
    """Place each record on the [T, *spatial_shape] grid, checking it in file order.

    ``locate(rec)`` returns the record's spatial index or raises. Returns the
    records' ``(slot, *spatial)`` keys, their linear cell indices, and their
    [n, D] feature values (0 where None) with observed flags. The first
    offending record raises what a per-record loop would: its ``locate``
    error, then an off-grid time, then DuplicateCell naming
    ``describe(rec, key)`` if an earlier record holds its cell, then a
    missing or non-numeric feature.
    """
    dims = (axis.length, *spatial_shape)
    slots: dict[datetime, int] = {}
    keys: list[tuple[int, ...]] = []
    values: list[float] = []
    observed: list[bool] = []
    try:
        for rec in records:
            spatial = locate(rec)
            slot = slots.get(rec.time)
            if slot is None:
                slot = slots[rec.time] = axis.slot_of(rec.time)
            keys.append((slot, *spatial))
            for name in features:
                v = _feature_value(rec, name)
                values.append(0.0 if v is None else v)
                observed.append(v is not None)
    finally:
        # Also on error: a repeat before the failing record is reported first.
        lin = np.ravel_multi_index(
            np.array(keys, dtype=np.int64).reshape(-1, len(dims)).T, dims
        )
        _, first = np.unique(lin, return_index=True)
        if len(first) < len(lin):
            i = int(np.setdiff1d(np.arange(len(lin)), first)[0])
            raise DuplicateCell(f"second record for {describe(records[i], keys[i])}")
    D = len(features)
    values = np.array(values, dtype=np.float64).reshape(-1, D)
    return keys, lin, values, np.array(observed, dtype=bool).reshape(-1, D)


def _dense(layout, records, axis, spatial_shape, features, locate, describe, **meta):
    """Scatter records into an STTensor of [T, *spatial_shape, D] and its mask."""
    _, lin, cell_values, cell_observed = _scatter(
        records, axis, spatial_shape, features, locate, describe
    )
    shape = (axis.length, *spatial_shape, len(features))
    values = np.zeros(shape, dtype=np.float64)
    mask = np.zeros(shape, dtype=bool)
    values.reshape(-1, len(features))[lin] = cell_values
    mask.reshape(-1, len(features))[lin] = cell_observed
    tensor = STTensor(layout, values, axis, tuple(features), **meta)
    return tensor, MaskTensor(mask)


def dyna_to_graph_tensor(
    records: Sequence[DynaRecord],
    geo_order: Sequence[str],
    axis: TimeAxis,
    features: Sequence[str],
) -> tuple[STTensor, MaskTensor]:
    """Scatter state records into a [T, N, D] tensor over the geo ordering."""
    if not records:
        raise EmptyTable("no state records to tensorize")
    index = {gid: i for i, gid in enumerate(geo_order)}

    def locate(rec):
        if rec.dyna_type != "state":
            raise ValueError(f"expected state rows, got {rec.dyna_type!r}")
        if rec.entity_id not in index:
            raise UnknownEntity(f"entity {rec.entity_id!r} not in the geo ordering")
        return (index[rec.entity_id],)

    def describe(rec, _):
        return f"entity {rec.entity_id!r} at {format_timestamp(rec.time)}"

    order = tuple(geo_order)
    N = len(order)
    return _dense(
        "graph", records, axis, (N,), features, locate, describe, geo_order=order
    )


def grid_to_tensor(
    records: Sequence[GridRecord],
    grid_shape: tuple[int, int],
    axis: TimeAxis,
    features: Sequence[str],
) -> tuple[STTensor, MaskTensor]:
    """Scatter grid records into a [T, I, J, D] tensor."""
    if not records:
        raise EmptyTable("no grid records to tensorize")
    I, J = grid_shape

    def locate(rec):
        if not (0 <= rec.row_id < I and 0 <= rec.col_id < J):
            raise UnknownEntity(
                f"cell ({rec.row_id}, {rec.col_id}) outside grid {grid_shape}"
            )
        return (rec.row_id, rec.col_id)

    def describe(rec, _):
        return f"cell ({rec.row_id}, {rec.col_id}) at {format_timestamp(rec.time)}"

    return _dense(
        "grid", records, axis, (I, J), features, locate, describe, grid_shape=(I, J)
    )


def od_to_tensor(
    records: Sequence[ODRecord],
    geo_order: Sequence[str],
    axis: TimeAxis,
    features: Sequence[str],
) -> tuple[STTensor, MaskTensor]:
    """Scatter origin-destination records into a [T, N, N, D] tensor."""
    if not records:
        raise EmptyTable("no od records to tensorize")
    index = {gid: i for i, gid in enumerate(geo_order)}

    def locate(rec):
        for side in (rec.origin_id, rec.des_id):
            if side not in index:
                raise UnknownEntity(f"entity {side!r} not in the geo ordering")
        return (index[rec.origin_id], index[rec.des_id])

    def describe(rec, _):
        at = format_timestamp(rec.time)
        return f"pair ({rec.origin_id!r}, {rec.des_id!r}) at {at}"

    order = tuple(geo_order)
    N = len(order)
    return _dense(
        "od", records, axis, (N, N), features, locate, describe, geo_order=order
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
    records: Sequence,
    grid_shape: tuple[int, int],
    axis: TimeAxis,
    features: Sequence[str],
) -> GridODTensor:
    """Collect grid-to-grid records into the sparse GridODTensor store."""
    if not records:
        raise EmptyTable("no gridod records to tensorize")
    I, J = grid_shape
    bounds = (
        ("origin_row_id", I),
        ("origin_col_id", J),
        ("des_row_id", I),
        ("des_col_id", J),
    )

    def locate(rec):
        for attr, bound in bounds:
            if not 0 <= getattr(rec, attr) < bound:
                raise UnknownEntity(
                    f"{attr}={getattr(rec, attr)} outside grid {grid_shape}"
                )
        return tuple(getattr(rec, attr) for attr, _ in bounds)

    def describe(_, key):
        return f"cells {key[1:]} at slot {key[0]}"

    keys, _, cell_values, cell_observed = _scatter(
        records, axis, (I, J, I, J), features, locate, describe
    )
    out = GridODTensor(axis, (I, J), tuple(features))
    for (slot, *base), row, seen in zip(
        keys, cell_values.tolist(), cell_observed.tolist()
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
