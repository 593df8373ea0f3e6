"""Turn validated tables into dense tensors, masks, and graph structures.

The three ``*_to_tensor`` functions take a :class:`~stkit.atomic.Table`, as
an :class:`~stkit.dataset.AtomicDataset` holds it, or a record list, which
is put behind the same columns. They scatter rows from the columns' codes:
each distinct cell value is looked up or converted once.

All dynamic tensors share the convention: axis 0 is time (slot index on a
fixed-interval axis), spatial axes follow, features come last. Unobserved
cells hold value 0 with mask 0; two records addressing the same cell are a
hard error, never a silent overwrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .atomic import (
    EMPTY,
    HUGE,
    MISSING,
    NUMBER,
    TEXT,
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
    "dyna_to_graph_tensor",
    "grid_to_tensor",
    "od_to_tensor",
    "build_adjacency",
    "Trajectories",
    "build_trajectories",
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

    def fraction_of_day(self, slot: int | np.ndarray) -> float | np.ndarray:
        """Time of day in [0, 1) of ``slot``: seconds since UTC midnight over
        86400. ``slot`` is an int, which gives a float, or an integer array,
        which gives a float64 array of the same shape, equal bit for bit."""
        start = self.start
        first = start.hour * 3600 + start.minute * 60 + start.second
        return (first + slot * self.interval) % 86400 / 86400.0


def build_time_axis(stamps: Iterable[datetime], interval: int) -> TimeAxis:
    """Derive the axis covering all timestamps at the given interval.

    The axis starts at the earliest time floored onto the epoch-anchored
    interval grid. Every timestamp must then land exactly on a slot
    boundary; the first off-grid one raises NonAlignedTimestamp. A table's
    distinct timestamps are ``table.field("time").present()``.
    """
    if interval <= 0:
        raise ValueError("interval must be positive seconds")
    times = dict.fromkeys(stamps)  # distinct, in order of first appearance
    if not times:
        raise EmptyTable("cannot build a time axis from zero timestamps")
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
    """Dense spatio-temporal tensor on its time axis.

    ``layout`` is one of ``graph`` ([T, N, D]), ``grid`` ([T, I, J, D]) or
    ``od`` ([T, N, N, D]).
    """

    layout: str
    values: np.ndarray
    time_axis: TimeAxis

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


def _bad_feature(table: Table, name: str, reasons: np.ndarray, row: int):
    value = table.prop(name).at(row)
    if reasons[row] == MISSING:
        message = f"record {table[row]!r} lacks declared feature column {name!r}"
    elif reasons[row] == HUGE:
        message = f"feature {name!r} has value {value!r} too large for a float"
    else:
        message = f"feature {name!r} has non-numeric value {value!r}"
    raise BadFeatureValue(message, table=table.kind, row=table.ordinal(row), column=name)


def _features(table: Table, features):
    """[n, D] feature values (0 where unobserved), observed flags, and one
    check per feature, from :meth:`Table.numbers`; an empty cell is unobserved."""
    values = np.zeros((len(table), len(features)), dtype=np.float64)
    observed = np.zeros(values.shape, dtype=bool)
    checks = []
    for d, name in enumerate(features):
        values[:, d], reasons = table.numbers(name)
        observed[:, d] = reasons == NUMBER
        failed = (reasons != NUMBER) & (reasons != EMPTY)
        checks.append((failed, partial(_bad_feature, table, name, reasons)))
    return values, observed, checks


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
    a row's cells are looked at. Returns the rows' linear cell indices and
    their [n, D] feature values (0 where unobserved) with observed flags.
    The first offending row raises what a per-row loop would: its first
    failing check, then an off-grid time, then DuplicateCell naming
    ``describe(row)`` if an earlier row holds its cell, then a missing or
    non-numeric feature.
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
        raise DuplicateCell(f"second record for {describe(int(np.argmax(repeat)))}")
    if which is not None:
        checks[which][1](row)
    return lin, values, observed


def _dense(layout, table, axis, shape, spatial, checks, features, describe):
    """Scatter a table into an STTensor of [T, *shape, D] and its mask."""
    lin, cell_values, cell_observed = _scatter(
        table, axis, shape, spatial, checks, features, describe
    )
    shape = (axis.length, *shape, len(features))
    values = np.zeros(shape, dtype=np.float64)
    mask = np.zeros(shape, dtype=bool)
    values.reshape(-1, len(features))[lin] = cell_values
    mask.reshape(-1, len(features))[lin] = cell_observed
    return STTensor(layout, values, axis), MaskTensor(mask)


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
    position = entities.positions(index)

    def not_state(row):
        raise ValueError(f"expected state rows, got {types.at(row)!r}")

    def describe(row):
        return f"entity {entities.at(row)!r} at {format_timestamp(times.at(row))}"

    checks = [
        (types.flags(lambda v: v != "state"), not_state),
        (position < 0, partial(_unknown_entity, entities)),
    ]
    return _dense("graph", table, axis, (len(geo_order),), [position], checks, features, describe)


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

    def describe(row):
        return f"{cell(row)} at {format_timestamp(times.at(row))}"

    checks = [((rows < 0) | (cols < 0), outside)]
    return _dense("grid", table, axis, (I, J), [rows, cols], checks, features, describe)


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
    o, d = origins.positions(index), dests.positions(index)

    def describe(row):
        at = format_timestamp(times.at(row))
        return f"pair ({origins.at(row)!r}, {dests.at(row)!r}) at {at}"

    checks = [
        (o < 0, partial(_unknown_entity, origins)),
        (d < 0, partial(_unknown_entity, dests)),
    ]
    N = len(geo_order)
    return _dense("od", table, axis, (N, N), [o, d], checks, features, describe)


def build_adjacency(
    rel_records: Sequence,
    geo_order: Sequence[str],
    weight_property: str | None = None,
    symmetrize: bool = False,
    self_loops: bool = False,
) -> np.ndarray:
    """Build the [N, N] adjacency matrix from geo-to-geo relation rows.

    The rows are a Table or a record list, read as columns. Rows with
    rel_type other than ``geo`` are ignored. Without a weight property every
    present edge gets weight 1; with one, read by :meth:`Table.numbers`,
    empty or missing cells default to 1, a text, too-large, NaN or infinite
    weight raises BadFeatureValue and a negative one NegativeWeight. A repeated
    (origin, destination) pair is an error. ``symmetrize`` takes the
    elementwise max with the transpose.
    """
    rel = as_table("rel", rel_records)
    index = {gid: i for i, gid in enumerate(geo_order)}
    N = len(geo_order)
    A = np.zeros((N, N), dtype=np.float64)
    weights, reasons = np.ones(len(rel)), np.full(len(rel), NUMBER, np.int8)
    if weight_property is not None:
        weights, reasons = rel.numbers(weight_property)
        weights[reasons != NUMBER] = 1.0  # empty or missing; text and huge raise
    seen: set[tuple[int, int]] = set()
    columns = (rel.field(a).tolist() for a in ("rel_type", "origin_id", "des_id"))
    for row, (rel_type, origin, dest) in enumerate(zip(*columns)):
        if rel_type != "geo":
            continue
        for side in (origin, dest):
            if side not in index:
                raise UnknownEntity(f"entity {side!r} not in the geo ordering")
        edge = (index[origin], index[dest])
        if edge in seen:
            raise DuplicateCell(f"duplicate edge ({origin!r}, {dest!r})")
        seen.add(edge)
        if reasons[row] in (TEXT, HUGE):
            _bad_feature(rel, weight_property, reasons, row)
        w = float(weights[row])
        if not np.isfinite(w):  # only a record list can hold one
            raise BadFeatureValue(f"weight {weight_property!r} has non-finite value {w!r}",
                                  table="rel", row=rel.ordinal(row), column=weight_property)
        if w < 0:
            raise NegativeWeight(f"edge ({origin!r}, {dest!r}) has weight {w}")
        A[edge] = w
    if symmetrize:
        A = np.maximum(A, A.T)
    if self_loops:
        np.fill_diagonal(A, np.maximum(A.diagonal(), 1.0))
    return A


@dataclass(frozen=True, eq=False)
class Trajectories:
    """A dyna table's trajectory rows as index ranges: trajectory ``i`` is
    ``table`` rows ``rows[ptr[i] : ptr[i + 1]]``, in time order, of user
    ``users[i]``. Points are read from the table's columns, and no per-point
    object is built. A range may be empty, as filtering can leave a piece."""

    table: Table
    rows: np.ndarray
    ptr: np.ndarray
    users: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.users)

    def values(self, name: str) -> list:
        """A record attribute's values at ``rows``, in order."""
        column = self.table.field(name)
        return Column(column.codes[self.rows], column.values).tolist()

    def pick(self, indices: Sequence[int], keep: np.ndarray | None = None) -> "Trajectories":
        """The trajectories at ``indices``, in that order, each without the
        positions of ``rows`` where the boolean mask ``keep`` is false."""
        indices = np.asarray(indices, dtype=np.intp)
        counts = np.diff(self.ptr)[indices]
        owner = np.repeat(np.arange(len(indices)), counts)
        # Picked trajectory j's k-th point sits at ptr[indices[j]] + k in rows.
        shift = self.ptr[indices] - (counts.cumsum() - counts)
        position = np.arange(len(owner)) + np.repeat(shift, counts)
        if keep is not None:
            owner, position = owner[keep[position]], position[keep[position]]
        ptr = np.concatenate([[0], np.bincount(owner, minlength=len(indices)).cumsum()])
        users = tuple(self.users[i] for i in indices.tolist())
        return Trajectories(self.table, self.rows[position], ptr, users)


def build_trajectories(records: Table | Sequence[DynaRecord]) -> Trajectories:
    """Group trajectory rows by entity and sort each group by time.

    The sort is stable, so rows sharing a timestamp keep file order.
    Trajectories appear in order of each entity's first row.
    """
    table = as_table("dyna", records)
    types = table.field("dyna_type")
    if (bad := types.flags(lambda v: v != "trajectory")).any():
        raise ValueError(f"expected trajectory rows, got {types.at(int(np.argmax(bad)))!r}")
    entities, times = table.field("entity_id"), table.field("time")
    users = tuple(dict.fromkeys(entities.present()))
    user = entities.positions({u: i for i, u in enumerate(users)})
    # Equal instants rank alike, whichever codes hold them.
    time = times.positions({t: k for k, t in enumerate(sorted(set(times.values)))})
    rows = np.lexsort((time, user))
    ptr = np.concatenate([[0], np.bincount(user, minlength=len(users)).cumsum()])
    return Trajectories(table, rows, ptr, users)
