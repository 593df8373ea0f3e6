"""Preprocessing: scaling, chronological splitting, windowing, batching.

The leakage rule lives here: splits are chronological, scalers fit on
training cells only, and sliding windows are built inside each split segment
so no window straddles a boundary. A segment's windows are one ``Windows``
(the segment plus its start slot and time fractions); ``make_batches``
gathers each batch from it by row index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    BadPipelineParams,
    DegenerateScale,
    EmptySegment,
    NegativeInputForLog,
    WindowTooLong,
)
from .tensorize import TimeAxis, Trajectory

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
    "cut_trajectory",
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

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "none":
            return x.copy()
        if self.kind == "zscore":
            return x * self.std + self.mean
        if self.kind == "minmax":
            return x * (self.max - self.min) + self.min
        if self.kind == "log1p":
            return np.expm1(x)
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

    Window k is rows k .. k + t_in + t_out - 1. ``time`` is each row's
    time-of-day fraction in [0, 1), and ``start_slot`` the absolute slot of
    row 0, so batches carry slot ids for leakage audits and periodic lookups.
    """

    values: np.ndarray
    mask: np.ndarray
    spec: WindowSpec
    start_slot: int
    time: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0] - self.spec.t_in - self.spec.t_out + 1


def _time_fractions(slots: np.ndarray, axis: TimeAxis | None) -> np.ndarray:
    if axis is None:
        return np.zeros(len(slots), dtype=np.float64)
    start = axis.start
    first = start.hour * 3600 + start.minute * 60 + start.second
    return (first + slots * axis.interval) % 86400 / 86400.0


def make_windows(
    values: np.ndarray,
    mask: np.ndarray,
    spec: WindowSpec,
    axis: TimeAxis | None = None,
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
    slots = np.arange(start_slot, start_slot + T, dtype=np.int64)
    return Windows(values, mask, spec, start_slot, _time_fractions(slots, axis))


def split_windows(
    values: np.ndarray,
    mask: np.ndarray,
    wspec: WindowSpec,
    sspec: SplitSpec,
    axis: TimeAxis | None = None,
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
                values[seg.start : seg.stop], mask[seg.start : seg.stop], wspec, axis, seg.start
            )
        except WindowTooLong as e:
            raise WindowTooLong(f"split {name}: {e}") from None
    return out


def make_batches(
    samples: Windows,
    batch_size: int,
    shuffle_seed: int | None = None,
) -> list[dict[str, np.ndarray]]:
    """Gather the windows into dict batches; the last batch may be short.

    With ``shuffle_seed`` set, window order is permuted reproducibly first.
    Batch keys: x, y, x_mask, y_mask, x_time, y_time, x_slots, y_slots; each
    batch is one gather of segment rows, so every array is a fresh copy.
    """
    if not _positive_whole(batch_size):
        raise BadPipelineParams(f"batch_size must be a positive integer, got {batch_size!r}")
    w, n, t_in = samples, len(samples), samples.spec.t_in
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    offsets = np.arange(t_in + w.spec.t_out)
    batches = []
    for lo in range(0, n, batch_size):
        rows = order[lo : lo + batch_size, None] + offsets
        x, y = rows[:, :t_in], rows[:, t_in:]
        batches.append(dict(
            x=w.values[x], y=w.values[y], x_mask=w.mask[x], y_mask=w.mask[y],
            x_time=w.time[x], y_time=w.time[y],
            x_slots=w.start_slot + x, y_slots=w.start_slot + y,
        ))
    return batches


def filter_trajectories(
    trajectories: Sequence[Trajectory],
    min_points: int = 0,
    min_trajs_per_user: int = 0,
    min_visits_per_location: int = 0,
) -> list[Trajectory]:
    """Jointly filter sparse trajectories, users, and locations to a fixed point.

    Dropping a location can sink a trajectory below min_points, which can
    sink a user below min_trajs_per_user, which can sink another location, so
    the three filters iterate until nothing changes. The result is idempotent:
    filtering it again with the same thresholds returns it unchanged.
    Location counting ignores points whose location is None.
    """
    trajs = list(trajectories)
    while True:
        kept = [t for t in trajs if len(t.points) >= min_points]
        if min_trajs_per_user > 0:
            per_user: dict[str, int] = {}
            for t in kept:
                per_user[t.user_id] = per_user.get(t.user_id, 0) + 1
            kept = [t for t in kept if per_user[t.user_id] >= min_trajs_per_user]
        if min_visits_per_location > 0:
            visits: dict[str, int] = {}
            for t in kept:
                for p in t.points:
                    if p.location is not None:
                        visits[p.location] = visits.get(p.location, 0) + 1
            trimmed = []
            for t in kept:
                points = [
                    p
                    for p in t.points
                    if p.location is None
                    or visits[p.location] >= min_visits_per_location
                ]
                trimmed.append(
                    t if len(points) == len(t.points) else Trajectory(t.user_id, points)
                )
            kept = trimmed
        if len(kept) == len(trajs) and all(
            a is b or a.points == b.points for a, b in zip(kept, trajs)
        ):
            return kept
        trajs = kept


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


def cut_trajectory(traj: Trajectory, spec: TrajWindowSpec) -> list[Trajectory]:
    """Cut one trajectory into sub-trajectories; concatenation reproduces it."""
    if not traj.points:
        return []
    pieces: list[list] = [[traj.points[0]]]
    for p in traj.points[1:]:
        if spec.mode == "time":
            window_start = pieces[-1][0].time
            if (p.time - window_start).total_seconds() > spec.size:
                pieces.append([p])
                continue
        else:
            if len(pieces[-1]) >= spec.size:
                pieces.append([p])
                continue
        pieces[-1].append(p)
    return [Trajectory(traj.user_id, piece) for piece in pieces]


def split_per_user(
    trajectories: Sequence[Trajectory], spec: SplitSpec
) -> dict[str, list[Trajectory]]:
    """Split each user's trajectories chronologically by the given ratios.

    Trajectories are ordered by first-point time per user and split by the
    rule of :func:`split_chronological`. Users with too few trajectories to
    fill a segment simply leave it empty instead of erroring, since sparse
    users are routine after filtering.
    """
    by_user: dict[str, list[Trajectory]] = {}
    for t in trajectories:
        by_user.setdefault(t.user_id, []).append(t)
    out: dict[str, list[Trajectory]] = {"train": [], "val": [], "test": []}
    for trajs in by_user.values():
        trajs = sorted(trajs, key=lambda t: (len(t.points) == 0, t.points[0].time if t.points else 0))
        for segment, seg in zip(out.values(), _split_ranges(len(trajs), spec)):
            segment.extend(trajs[seg.start : seg.stop])
    return out
