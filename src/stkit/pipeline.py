"""Preprocessing: scaling, chronological splitting, windowing, batching.

The leakage rule lives here: splits are chronological, scalers fit on
training cells only, and sliding windows are built inside each split segment
so no window straddles a boundary. A segment's windows are one ``Windows``
(the segment plus its start slot); ``make_batches`` gathers each batch from
it by row index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BadPipelineParams,
    DegenerateScale,
    EmptySegment,
    NegativeInputForLog,
    WindowTooLong,
)
from .tensorize import Trajectories

__all__ = [
    "Scaler",
    "fit_scaler",
    "SplitSpec",
    "split_chronological",
    "WindowSpec",
    "Windows",
    "make_windows",
    "split_windows",
    "make_batches",
    "filter_trajectories",
    "TrajWindowSpec",
    "cut_trajectories",
    "split_per_user",
]

SCALER_KINDS = ("none", "zscore", "minmax", "log1p")


@dataclass
class Scaler:
    """Invertible elementwise transform with parameters frozen at fit time."""

    kind: str
    mean: float = 0.0
    std: float = 1.0
    min: float = 0.0
    max: float = 1.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "none":
            return x.copy()
        if self.kind == "zscore":
            return (x - self.mean) / self.std
        if self.kind == "minmax":
            return (x - self.min) / (self.max - self.min)
        if self.kind == "log1p":
            if np.any(x < 0):
                raise NegativeInputForLog("log1p scaling needs x >= 0")
            return np.log1p(x)
        raise ValueError(f"unknown scaler kind {self.kind!r}")

    def inverse(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The values ``x`` maps back to; into ``out``, a float64 array that
        may be ``x`` itself, if given."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "none":
            if out is None:
                return x.copy()
            np.copyto(out, x)
            return out
        if self.kind == "zscore":
            return np.add(np.multiply(x, self.std, out=out), self.mean, out=out)
        if self.kind == "minmax":
            return np.add(np.multiply(x, self.max - self.min, out=out), self.min, out=out)
        if self.kind == "log1p":
            return np.expm1(x, out=out)
        raise ValueError(f"unknown scaler kind {self.kind!r}")


def fit_scaler(kind: str, values: np.ndarray, mask: np.ndarray | None = None) -> Scaler:
    """Fit scaler parameters on observed cells only.

    ``mask`` selects the training cells; None means all cells count. Zero
    spread (constant training data) raises DegenerateScale for zscore and
    minmax.
    """
    if kind not in SCALER_KINDS:
        raise BadPipelineParams(f"unknown scaler kind {kind!r}; pick from {SCALER_KINDS}")
    values = np.asarray(values, dtype=np.float64)
    cells = values[np.asarray(mask, dtype=bool)] if mask is not None else values.ravel()
    if kind == "none":
        return Scaler("none")
    if cells.size == 0:
        raise DegenerateScale("no observed cells to fit on")
    if kind == "zscore":
        mean = float(cells.mean())
        std = float(cells.std())
        if std == 0.0:
            raise DegenerateScale("zero standard deviation in training cells")
        return Scaler("zscore", mean=mean, std=std)
    if kind == "minmax":
        lo, hi = float(cells.min()), float(cells.max())
        if hi == lo:
            raise DegenerateScale("zero range in training cells")
        return Scaler("minmax", min=lo, max=hi)
    # log1p has no fitted parameters, but reject negative training data early.
    if np.any(cells < 0):
        raise NegativeInputForLog("log1p scaling needs x >= 0")
    return Scaler("log1p")


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test ratios; must be finite, positive and sum to 1."""

    train: float = 0.7
    val: float = 0.1
    test: float = 0.2

    def __post_init__(self):
        total = self.train + self.val + self.test
        if not abs(total - 1.0) <= 1e-9:  # a NaN or infinite ratio fails too
            raise BadPipelineParams(f"ratios must be finite and sum to 1, got {total}")
        if min(self.train, self.val, self.test) <= 0:
            raise BadPipelineParams("all three ratios must be positive")


def _split_ranges(n: int, spec: SplitSpec) -> tuple[range, range, range]:
    """Floor the validation and test sizes; the rest, first in time, trains."""
    n_val = int(n * spec.val)
    n_test = int(n * spec.test)
    n_train = n - n_val - n_test
    return (
        range(0, n_train),
        range(n_train, n_train + n_val),
        range(n_train + n_val, n),
    )


def split_chronological(n: int, spec: SplitSpec) -> tuple[range, range, range]:
    """Allocate ``n`` ordered items to train/val/test index ranges.

    Validation and test sizes are floored; the remainder goes to train, so
    100 items at 0.7/0.1/0.2 give 70/10/20 and 10 items give 7/1/2. Any
    empty segment raises EmptySegment.
    """
    segments = _split_ranges(n, spec)
    if min(map(len, segments)) == 0:
        raise EmptySegment(
            f"{n} items at {spec.train}/{spec.val}/{spec.test} leave an empty segment"
        )
    return segments


def _positive_whole(n) -> bool:
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n > 0


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window lengths: t_in observed slots, t_out predicted slots."""

    t_in: int = 12
    t_out: int = 12

    def __post_init__(self):
        if not (_positive_whole(self.t_in) and _positive_whole(self.t_out)):
            raise BadPipelineParams(
                f"window lengths must be positive integers, got {self.t_in!r}, {self.t_out!r}"
            )


@dataclass(frozen=True, eq=False)
class Windows:
    """Every (t_in, t_out) window of one segment, kept as the segment itself.

    Window k is rows k .. k + t_in + t_out - 1. ``start_slot`` is the
    absolute slot of row 0, so batches carry slot ids for leakage audits and
    periodic lookups.
    """

    values: np.ndarray
    mask: np.ndarray
    spec: WindowSpec
    start_slot: int

    def __len__(self) -> int:
        return self.values.shape[0] - self.spec.t_in - self.spec.t_out + 1

    def part(self, lo: int, hi: int) -> "Windows":
        """Windows ``lo`` to ``hi - 1`` (``hi`` past the end stops there), over
        views of this segment."""
        rows = slice(lo, min(hi, len(self)) + self.spec.t_in + self.spec.t_out - 1)
        return Windows(self.values[rows], self.mask[rows], self.spec, self.start_slot + lo)


def make_windows(
    values: np.ndarray,
    mask: np.ndarray,
    spec: WindowSpec,
    start_slot: int = 0,
) -> Windows:
    """Slide (t_in, t_out) windows over axis 0 of a [T, ...] tensor.

    Holds exactly ``T - t_in - t_out + 1`` windows. ``start_slot`` is the
    absolute slot of values[0] on the source axis, used for slot bookkeeping
    when windowing a segment of a larger tensor.
    """
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != values.shape:
        raise BadPipelineParams(f"mask shape {mask.shape} differs from values shape {values.shape}")
    T = values.shape[0]
    if spec.t_in + spec.t_out > T:
        raise WindowTooLong(
            f"slots {start_slot}..{start_slot + T - 1} hold {T}, but input_window + output_window"
            f" = {spec.t_in} + {spec.t_out} = {spec.t_in + spec.t_out}"
        )
    return Windows(values, mask, spec, start_slot)


def split_windows(
    values: np.ndarray,
    mask: np.ndarray,
    wspec: WindowSpec,
    sspec: SplitSpec,
) -> dict[str, Windows]:
    """Split slots chronologically, then window inside each segment.

    Windowing after splitting guarantees that no window sees slots from two
    segments, which is the leakage property tests audit via x_slots/y_slots.
    """
    T = np.asarray(values).shape[0]
    train, val, test = split_chronological(T, sspec)
    out = {}
    for name, seg in (("train", train), ("val", val), ("test", test)):
        try:
            out[name] = make_windows(
                values[seg.start : seg.stop], mask[seg.start : seg.stop], wspec, seg.start
            )
        except WindowTooLong as e:
            raise WindowTooLong(f"split {name}: {e}") from None
    return out


def make_batches(samples: Windows, batch_size: int) -> list[dict[str, np.ndarray]]:
    """Gather the windows, in order, into dict batches; the last may be short.

    Batch keys: x, y, y_mask, x_slots, y_slots; each batch is one gather of
    segment rows, so every array is a fresh copy. A slot's time of day is
    ``TimeAxis.fraction_of_day(slots)``, and the input mask is
    ``samples.mask[x_slots - samples.start_slot]``.
    """
    if not _positive_whole(batch_size):
        raise BadPipelineParams(f"batch_size must be a positive integer, got {batch_size!r}")
    w, n, t_in = samples, len(samples), samples.spec.t_in
    offsets = np.arange(t_in + w.spec.t_out)
    batches = []
    for lo in range(0, n, batch_size):
        rows = np.arange(lo, min(lo + batch_size, n))[:, None] + offsets
        x, y = rows[:, :t_in], rows[:, t_in:]
        batches.append(dict(
            x=w.values[x], y=w.values[y], y_mask=w.mask[y],
            x_slots=w.start_slot + x, y_slots=w.start_slot + y,
        ))
    return batches


def filter_trajectories(
    trajs: Trajectories,
    min_points: int = 0,
    min_trajs_per_user: int = 0,
    min_visits_per_location: int = 0,
) -> Trajectories:
    """Jointly filter sparse trajectories, users, and locations to a fixed point.

    Dropping a location can sink a trajectory below min_points, which can
    sink a user below min_trajs_per_user, which can sink another location, so
    the three filters iterate until nothing changes. The result is idempotent:
    filtering it again with the same thresholds returns it unchanged.
    Location counting ignores points whose location is None. A piece needs a
    point whatever ``min_points`` is, so emptied pieces never count a user.
    """
    ids: dict = {None: -1}
    location = np.array([ids.setdefault(v, len(ids) - 1) for v in trajs.values("location")], int)
    users: dict[str, int] = {}
    user = np.array([users.setdefault(u, len(users)) for u in trajs.users], dtype=np.intp)
    owner = np.repeat(np.arange(len(trajs)), np.diff(trajs.ptr))
    keep = np.ones(len(trajs), dtype=bool)  # per trajectory
    alive = np.ones(len(trajs.rows), dtype=bool)  # per position of rows
    while True:
        kept = keep & (np.bincount(owner[alive], minlength=len(trajs)) >= max(min_points, 1))
        if min_trajs_per_user > 0:
            kept &= np.bincount(user[kept], minlength=len(users))[user] >= min_trajs_per_user
        trim = np.zeros_like(alive)
        if min_visits_per_location > 0:
            counted = alive & kept[owner] & (location >= 0)
            # One slot past the locations, for the -1 of None.
            visits = np.bincount(location[counted], minlength=len(ids))
            trim = counted & (visits[location] < min_visits_per_location)
        if (kept == keep).all() and not trim.any():
            return trajs.pick(np.flatnonzero(keep), alive)
        keep, alive = kept, alive & ~trim


@dataclass(frozen=True)
class TrajWindowSpec:
    """How to cut long trajectories: by time gap from window start or by length.

    ``mode="time"``: a new sub-trajectory starts whenever a point is more
    than ``size`` seconds after the current window's first point.
    ``mode="length"``: consecutive chunks of at most ``size`` points.
    """

    mode: str = "time"
    size: int = 259200  # 72 hours

    def __post_init__(self):
        if self.mode not in ("time", "length"):
            raise BadPipelineParams(f"unknown cut mode {self.mode!r}")
        if self.size <= 0:
            raise BadPipelineParams("cut size must be positive")


def cut_trajectories(trajs: Trajectories, spec: TrajWindowSpec) -> Trajectories:
    """Cut every trajectory into pieces over the same rows; each piece keeps
    its trajectory's user, and concatenating the pieces reproduces the rows."""
    stamps = trajs.values("time")
    ptr, users = [0], []
    for user, lo, hi in zip(trajs.users, trajs.ptr.tolist(), trajs.ptr[1:].tolist()):
        if spec.mode == "length":
            starts = list(range(lo, hi, spec.size))
        else:
            starts = [lo] if hi > lo else []
            for k in range(lo + 1, hi):
                if (stamps[k] - stamps[starts[-1]]).total_seconds() > spec.size:
                    starts.append(k)
        ptr.extend(starts[1:] + [hi] if starts else [])
        users.extend([user] * len(starts))
    return Trajectories(trajs.table, trajs.rows, np.array(ptr, dtype=np.intp), tuple(users))


def split_per_user(trajs: Trajectories, spec: SplitSpec) -> dict[str, Trajectories]:
    """Split each user's trajectories chronologically by the given ratios.

    Users come in order of their first trajectory. Each user's trajectories
    are ordered by first-point time, empty ones last, and split by the rule
    of :func:`split_chronological`. Users with too few trajectories to fill
    a segment simply leave it empty instead of erroring, since sparse users
    are routine after filtering.
    """
    stamps, ptr = trajs.values("time"), trajs.ptr.tolist()
    by_user: dict[str, list[int]] = {}
    for i, user in enumerate(trajs.users):
        by_user.setdefault(user, []).append(i)
    out: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    for indices in by_user.values():
        indices.sort(key=lambda i: (False, stamps[ptr[i]]) if ptr[i] < ptr[i + 1] else (True, 0))
        for segment, seg in zip(out.values(), _split_ranges(len(indices), spec)):
            segment.extend(indices[seg.start : seg.stop])
    return {name: trajs.pick(indices) for name, indices in out.items()}
