"""Scaling, chronological splits, windowing, batching, trajectory prep."""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np
import pytest

from stkit.exceptions import (
    BadPipelineParams,
    DegenerateScale,
    EmptySegment,
    NegativeInputForLog,
    WindowTooLong,
)
from stkit.pipeline import (
    Scaler,
    SplitSpec,
    TrajWindowSpec,
    WindowSpec,
    cut_trajectories,
    filter_trajectories,
    fit_scaler,
    make_batches,
    make_windows,
    split_chronological,
    split_per_user,
    split_windows,
)
from stkit.atomic import DynaRecord, as_table
from stkit.tensorize import TimeAxis, Trajectories, build_time_axis


def hours(h):
    return datetime(2021, 3, 1, tzinfo=timezone.utc) + timedelta(hours=h)


def traj(user, times, locations=None):
    """One trajectory as (user, [(location, time), ...])."""
    return user, list(zip(locations or [None] * len(times), times))


def ranges(*trajs):
    """The trajectories made by ``traj``, in order, as ranges over one table."""
    rows = [(user, loc, t) for user, points in trajs for loc, t in points]
    records = [
        DynaRecord(f"d{n}", "trajectory", t, user, loc) for n, (user, loc, t) in enumerate(rows)
    ]
    ptr = np.cumsum([0] + [len(points) for _, points in trajs])
    return Trajectories(
        as_table("dyna", records), np.arange(len(records)), ptr, tuple(u for u, _ in trajs)
    )


def listed(trajs):
    """Trajectories as ``traj`` makes them: (user, [(location, time), ...])."""
    points = list(zip(trajs.values("location"), trajs.values("time")))
    return [
        (user, points[lo:hi])
        for user, lo, hi in zip(trajs.users, trajs.ptr.tolist(), trajs.ptr[1:].tolist())
    ]


# -- scalers -----------------------------------------------------------------


def test_zscore_parameters_and_apply():
    s = fit_scaler("zscore", np.array([1.0, 2.0, 3.0, 4.0]))
    assert s.mean == 2.5
    assert s.std == math.sqrt(1.25)  # population std
    t = fit_scaler("zscore", np.array([0.0, 2.0]))
    assert t.apply(np.array([3.0])).tolist() == [2.0]


def test_minmax_parameters_and_apply():
    s = fit_scaler("minmax", np.array([0.0, 2.0]))
    assert (s.min, s.max) == (0.0, 2.0)
    assert s.apply(np.array([1.0, 3.0])).tolist() == [0.5, 1.5]


def test_log1p_apply_and_negatives():
    s = fit_scaler("log1p", np.array([0.0, 1.0]))
    assert s.apply(np.array([math.e - 1.0])).tolist() == [1.0]
    with pytest.raises(NegativeInputForLog):
        s.apply(np.array([-0.5]))
    with pytest.raises(NegativeInputForLog):
        fit_scaler("log1p", np.array([-1.0]))


def test_none_scaler_is_identity():
    s = fit_scaler("none", np.array([5.0]))
    x = np.array([1.0, -2.0])
    assert s.apply(x).tolist() == x.tolist()
    assert s.inverse(x).tolist() == x.tolist()
    assert s.apply(x) is not x  # copies, never aliases


@pytest.mark.parametrize("kind", ["zscore", "minmax", "log1p", "none"])
def test_inverse_round_trip(kind):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.5, 100.0, size=(6, 4))
    s = fit_scaler(kind, x)
    back = s.inverse(s.apply(x))
    assert np.allclose(back, x, rtol=1e-9, atol=1e-9)


def test_degenerate_scales():
    with pytest.raises(DegenerateScale):
        fit_scaler("zscore", np.array([3.0, 3.0, 3.0]))
    with pytest.raises(DegenerateScale):
        fit_scaler("minmax", np.array([3.0]))
    with pytest.raises(DegenerateScale):
        fit_scaler("zscore", np.array([1.0, 2.0]), mask=np.array([False, False]))
    with pytest.raises(ValueError):
        fit_scaler("robust", np.array([1.0]))


def test_fit_ignores_masked_cells():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    mask = np.array([True, True, False, False])
    s = fit_scaler("zscore", values, mask=mask)
    # Perturbing hidden cells must not move the parameters.
    noisy = values.copy()
    noisy[2:] = [1e9, -1e9]
    t = fit_scaler("zscore", noisy, mask=mask)
    assert (s.mean, s.std) == (t.mean, t.std) == (1.5, 0.5)


def test_scaler_dataclass_direct_use():
    s = Scaler("zscore", mean=10.0, std=2.0)
    assert s.apply(np.array([14.0])).tolist() == [2.0]
    assert s.inverse(np.array([2.0])).tolist() == [14.0]


# -- chronological splits ----------------------------------------------------


def test_split_100_default_ratios():
    train, val, test = split_chronological(100, SplitSpec())
    assert (len(train), len(val), len(test)) == (70, 10, 20)
    assert list(train)[:2] == [0, 1] and train.stop == 70
    assert (val.start, val.stop) == (70, 80)
    assert (test.start, test.stop) == (80, 100)


def test_split_10_floors_small_segments():
    train, val, test = split_chronological(10, SplitSpec())
    assert (len(train), len(val), len(test)) == (7, 1, 2)


def test_split_remainder_goes_to_train():
    train, val, test = split_chronological(101, SplitSpec())
    # floor(10.1) = 10, floor(20.2) = 20, train picks up the extra item.
    assert (len(train), len(val), len(test)) == (71, 10, 20)


def test_split_covers_range_disjointly():
    for n in (10, 17, 99, 1000):
        train, val, test = split_chronological(n, SplitSpec())
        assert list(train) + list(val) + list(test) == list(range(n))


def test_split_empty_segment_raises():
    with pytest.raises(EmptySegment):
        split_chronological(2, SplitSpec())


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        SplitSpec(1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "ratios",
    [
        (float("nan"), 0.1, 0.2),
        (0.7, float("nan"), 0.2),
        (0.7, 0.1, float("inf")),
        (float("inf"), float("-inf"), 1.0),
    ],
)
def test_split_spec_rejects_non_finite_ratios(ratios):
    with pytest.raises(BadPipelineParams, match="ratios must be finite and sum to 1"):
        SplitSpec(*ratios)


# -- windows -----------------------------------------------------------------


def one_batch(windows):
    (batch,) = make_batches(windows, len(windows))
    return batch


def test_window_count_t100():
    values = np.arange(100, dtype=np.float64).reshape(100, 1)
    mask = np.ones_like(values, dtype=bool)
    windows = make_windows(values, mask, WindowSpec(12, 12))
    assert len(windows) == 77  # 100 - 12 - 12 + 1


def test_window_contents_and_slots():
    values = np.arange(8, dtype=np.float64).reshape(8, 1)
    mask = values % 2 == 0
    windows = make_windows(values, mask, WindowSpec(t_in=3, t_out=2), start_slot=50)
    assert len(windows) == 4
    b = one_batch(windows)
    assert b["x"][1, :, 0].tolist() == [1.0, 2.0, 3.0]
    assert b["y"][1, :, 0].tolist() == [4.0, 5.0]
    assert b["x_mask"][1, :, 0].tolist() == [False, True, False]
    assert b["x_slots"][1].tolist() == [51, 52, 53]
    assert b["y_slots"][1].tolist() == [54, 55]


def test_window_exact_fit_yields_one_sample():
    values = np.zeros((3, 2))
    mask = np.ones_like(values, dtype=bool)
    windows = make_windows(values, mask, WindowSpec(2, 1))
    assert len(windows) == 1
    assert one_batch(windows)["x"].shape == (1, 2, 2)
    with pytest.raises(WindowTooLong):
        make_windows(values, mask, WindowSpec(3, 1))


def test_window_time_fractions_follow_axis():
    axis = build_time_axis([hours(0), hours(5)], 3600)
    values = np.zeros((6, 1))
    mask = np.ones_like(values, dtype=bool)
    b = one_batch(make_windows(values, mask, WindowSpec(2, 1), axis=axis))
    assert b["x_time"][0].tolist() == [0.0, 1.0 / 24.0]
    assert b["y_time"][0].tolist() == [2.0 / 24.0]
    # Without an axis the fractions are zero placeholders.
    plain = one_batch(make_windows(values, mask, WindowSpec(2, 1)))
    assert plain["x_time"][0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "start, interval",
    [
        (hours(0), 300),
        (hours(5) + timedelta(seconds=7 * 13), 7),  # interval not dividing a day
        (datetime(1969, 12, 31, 23, 59, 53, tzinfo=timezone.utc), 3601),
    ],
)
def test_window_time_fractions_equal_per_slot_fraction_of_day(start, interval):
    axis = TimeAxis(start, interval, 5000)
    values = np.zeros((axis.length, 1))
    mask = np.ones_like(values, dtype=bool)
    b = one_batch(make_windows(values, mask, WindowSpec(3, 2), axis=axis))
    for k in range(0, len(b["x"]), 97):
        for slots, fractions in (
            (b["x_slots"][k], b["x_time"][k]),
            (b["y_slots"][k], b["y_time"][k]),
        ):
            expected = [axis.fraction_of_day(int(j)) for j in slots]
            assert fractions.tolist() == expected  # bit-identical, not approximate


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, 12)
    with pytest.raises(ValueError):
        WindowSpec(12, -1)


def test_window_spec_rejects_fractional_length():
    with pytest.raises(BadPipelineParams, match="positive integers, got 2.5, 1"):
        WindowSpec(2.5, 1)


@pytest.mark.parametrize(
    "mask_shape", [(9, 2), (10, 3)], ids=["one-row-short", "another-width"]
)
def test_make_windows_rejects_a_mask_of_another_shape(mask_shape):
    where = rf"mask shape \({mask_shape[0]}, {mask_shape[1]}\) differs from values shape \(10, 2\)"
    with pytest.raises(BadPipelineParams, match=where):
        make_windows(np.zeros((10, 2)), np.ones(mask_shape, dtype=bool), WindowSpec(3, 1))


def test_split_windows_no_leakage():
    T = 100
    values = np.arange(T, dtype=np.float64).reshape(T, 1)
    mask = np.ones_like(values, dtype=bool)
    parts = split_windows(values, mask, WindowSpec(4, 2), SplitSpec())
    assert len(parts["train"]) == 70 - 6 + 1
    assert len(parts["val"]) == 10 - 6 + 1
    assert len(parts["test"]) == 20 - 6 + 1
    batches = {name: one_batch(ws) for name, ws in parts.items()}
    seen = {
        name: {int(s) for s in np.r_[b["x_slots"].ravel(), b["y_slots"].ravel()]}
        for name, b in batches.items()
    }
    assert max(seen["train"]) < min(seen["val"])
    assert max(seen["val"]) < min(seen["test"])
    # Slot ids index the original tensor: y values equal their slot index.
    b = batches["test"]
    assert b["y"][0, :, 0].tolist() == [float(s) for s in b["y_slots"][0]]


def test_split_windows_segment_too_short():
    values = np.zeros((30, 1))
    mask = np.ones_like(values, dtype=bool)
    # val holds slots 21..23: the error names the split, its slots and the width.
    where = r"^split val: slots 21\.\.23 hold 3, but input_window \+ output_window = 3 \+ 1 = 4$"
    with pytest.raises(WindowTooLong, match=where):
        split_windows(values, mask, WindowSpec(3, 1), SplitSpec())


# -- batching ----------------------------------------------------------------


def sample_batch_inputs(n):
    values = np.arange(n + 3, dtype=np.float64).reshape(-1, 1)
    mask = np.ones_like(values, dtype=bool)
    return make_windows(values, mask, WindowSpec(3, 1))


def test_batch_sizes_and_keys():
    windows = sample_batch_inputs(10)
    batches = make_batches(windows, 4)
    assert [b["x"].shape[0] for b in batches] == [4, 4, 2]
    assert set(batches[0]) == {
        "x", "y", "x_mask", "y_mask", "x_time", "y_time", "x_slots", "y_slots",
    }
    assert batches[0]["x"].shape == (4, 3, 1)
    # Unshuffled batches keep window order.
    assert batches[0]["y_slots"][:, 0].tolist() == [3, 4, 5, 6]


def test_batch_shuffle_deterministic():
    windows = sample_batch_inputs(10)
    a = make_batches(windows, 4, shuffle_seed=11)
    b = make_batches(windows, 4, shuffle_seed=11)
    c = make_batches(windows, 4, shuffle_seed=12)
    key = lambda bs: [bs_i["x_slots"].tolist() for bs_i in bs]
    assert key(a) == key(b)
    assert key(a) != key(c)
    # Shuffling permutes, never drops: same multiset of first slots.
    flat = sorted(int(s[0]) for b_ in a for s in b_["x_slots"])
    assert flat == list(range(10))


def test_batch_size_validation():
    with pytest.raises(ValueError):
        make_batches([], 0)


def test_batch_size_rejects_a_fraction():
    with pytest.raises(BadPipelineParams, match="batch_size must be a positive integer, got 2.5"):
        make_batches(sample_batch_inputs(10), 2.5)


# -- batches against the per-window reference --------------------------------
# The reference is the per-window implementation that ``Windows`` replaced:
# one object per window, stacked field by field per batch.


@dataclass
class Sample:
    x: np.ndarray
    y: np.ndarray
    x_mask: np.ndarray
    y_mask: np.ndarray
    x_time: np.ndarray
    y_time: np.ndarray
    x_slots: np.ndarray
    y_slots: np.ndarray


def reference_time_fractions(slots, axis):
    if axis is None:
        return np.zeros(len(slots), dtype=np.float64)
    start = axis.start
    first = start.hour * 3600 + start.minute * 60 + start.second
    slots = np.asarray(slots, dtype=np.int64)
    return (first + slots * axis.interval) % 86400 / 86400.0


def reference_make_windows(values, mask, spec, axis=None, start_slot=0):
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    T = values.shape[0]
    width = spec.t_in + spec.t_out
    if width > T:
        raise WindowTooLong(f"window needs {width} slots, segment has {T}")
    samples = []
    for k in range(T - width + 1):
        x_slots = np.arange(start_slot + k, start_slot + k + spec.t_in)
        y_slots = np.arange(
            start_slot + k + spec.t_in, start_slot + k + width
        )
        samples.append(
            Sample(
                x=values[k : k + spec.t_in],
                y=values[k + spec.t_in : k + width],
                x_mask=mask[k : k + spec.t_in],
                y_mask=mask[k + spec.t_in : k + width],
                x_time=reference_time_fractions(x_slots, axis),
                y_time=reference_time_fractions(y_slots, axis),
                x_slots=x_slots,
                y_slots=y_slots,
            )
        )
    return samples


def reference_make_batches(samples: Sequence[Sample], batch_size, shuffle_seed=None):
    if batch_size <= 0:
        raise BadPipelineParams("batch_size must be positive")
    order = np.arange(len(samples))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(samples))
    fields = ("x", "y", "x_mask", "y_mask", "x_time", "y_time", "x_slots", "y_slots")
    batches = []
    for lo in range(0, len(samples), batch_size):
        chunk = [samples[i] for i in order[lo : lo + batch_size]]
        batches.append(
            {f: np.stack([getattr(s, f) for s in chunk]) for f in fields}
        )
    return batches


TENSOR_SHAPES = {"1d": (40,), "graph": (40, 3, 2), "grid": (40, 2, 3, 2)}


@pytest.mark.parametrize("layout", sorted(TENSOR_SHAPES))
@pytest.mark.parametrize("t_in, t_out", [(12, 12), (3, 1), (1, 5)])
@pytest.mark.parametrize("start_slot", [0, 17])
@pytest.mark.parametrize("with_axis", [False, True])
@pytest.mark.parametrize("shuffle_seed", [None, 3])
@pytest.mark.parametrize("batch_size", [1, 4, 1000])
def test_batches_equal_the_per_window_reference(
    layout, t_in, t_out, start_slot, with_axis, shuffle_seed, batch_size
):
    rng = np.random.default_rng(0)
    values = rng.normal(size=TENSOR_SHAPES[layout])
    mask = rng.random(values.shape) < 0.8
    axis = TimeAxis(hours(5) + timedelta(seconds=7 * 13), 7, 1000) if with_axis else None
    spec = WindowSpec(t_in, t_out)
    windows = make_windows(values, mask, spec, axis=axis, start_slot=start_slot)
    samples = reference_make_windows(values, mask, spec, axis=axis, start_slot=start_slot)
    got = make_batches(windows, batch_size, shuffle_seed)
    want = reference_make_batches(samples, batch_size, shuffle_seed)
    assert len(windows) == len(samples)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        for key in w:
            assert g[key].dtype == w[key].dtype, key
            assert g[key].shape == w[key].shape, key
            assert g[key].flags.c_contiguous == w[key].flags.c_contiguous, key
            assert np.array_equal(g[key], w[key]), key


# -- trajectory filtering ----------------------------------------------------


def filtered(*trajs, **thresholds):
    return listed(filter_trajectories(ranges(*trajs), **thresholds))


def test_filter_min_points_only():
    t1 = traj("u0", [hours(0), hours(1)])
    t2 = traj("u0", [hours(2)])
    assert filtered(t1, t2, min_points=2) == [t1]


def test_filter_min_trajs_per_user():
    t1 = traj("u0", [hours(0)])
    t2 = traj("u0", [hours(1)])
    t3 = traj("u1", [hours(2)])
    kept = filtered(t1, t2, t3, min_trajs_per_user=2)
    assert [user for user, _ in kept] == ["u0", "u0"]


def test_filter_cascades_to_fixed_point():
    # lonely is visited once; dropping it sinks u1's trajectory below
    # min_points, removing u1's only trajectory; that in turn drops the
    # second visit to shared, sinking u0's second trajectory too.
    t1 = traj("u0", [hours(0), hours(1)], ["shared", "popular"])
    t2 = traj("u0", [hours(2), hours(3)], ["popular", "popular"])
    t3 = traj("u1", [hours(4), hours(5)], ["shared", "lonely"])
    kept = filter_trajectories(
        ranges(t1, t2, t3),
        min_points=2,
        min_visits_per_location=2,
    )
    assert "lonely" not in kept.values("location")
    assert all(np.diff(kept.ptr) >= 2)
    # Re-filtering is a no-op (idempotence).
    again = filter_trajectories(kept, min_points=2, min_visits_per_location=2)
    assert listed(again) == listed(kept)


def test_filter_none_locations_never_counted():
    t1 = traj("u0", [hours(0), hours(1)])
    assert filtered(t1, min_visits_per_location=5) == [t1]


def test_filter_no_thresholds_is_identity():
    t1 = traj("u0", [hours(0)])
    assert filtered(t1) == [t1]


# -- trajectory cutting ------------------------------------------------------


def cut(t, spec):
    return listed(cut_trajectories(ranges(t), spec))


def test_cut_time_mode_gap_from_window_start():
    t = traj("u0", [hours(0), hours(10), hours(80)])
    pieces = cut(t, TrajWindowSpec("time", 72 * 3600))
    assert [len(points) for _, points in pieces] == [2, 1]
    # The gap is measured from the window start, not the previous point.
    t2 = traj("u0", [hours(0), hours(50), hours(100)])
    pieces2 = cut(t2, TrajWindowSpec("time", 72 * 3600))
    assert [len(points) for _, points in pieces2] == [2, 1]


def test_cut_length_mode_chunks():
    t = traj("u0", [hours(i) for i in range(250)])
    pieces = cut(t, TrajWindowSpec("length", 100))
    assert [len(points) for _, points in pieces] == [100, 100, 50]


def test_cut_concatenation_identity():
    t = traj("u0", [hours(i * 7) for i in range(40)])
    for spec in (TrajWindowSpec("time", 24 * 3600), TrajWindowSpec("length", 7)):
        pieces = cut(t, spec)
        flat = [p for _, points in pieces for p in points]
        assert flat == t[1]
        assert all(user == "u0" for user, _ in pieces)


def test_cut_empty_and_spec_validation():
    assert cut(traj("u0", []), TrajWindowSpec()) == []
    with pytest.raises(ValueError):
        TrajWindowSpec("by_day", 1)
    with pytest.raises(ValueError):
        TrajWindowSpec("time", 0)


# -- per-user splits ----------------------------------------------------------


def split(trajs, spec):
    return {name: listed(part) for name, part in split_per_user(ranges(*trajs), spec).items()}


def test_split_per_user_ratios_and_order():
    trajs = [traj("u0", [hours(i), hours(i) + timedelta(minutes=30)]) for i in range(10)]
    parts = split(trajs[::-1], SplitSpec(0.6, 0.2, 0.2))
    assert [len(parts[k]) for k in ("train", "val", "test")] == [6, 2, 2]
    # Chronological per user regardless of input order.
    assert [points[0][1] for _, points in parts["train"]] == [hours(i) for i in range(6)]
    assert [points[0][1] for _, points in parts["test"]] == [hours(8), hours(9)]


def test_split_per_user_sparse_users_keep_train():
    trajs = [
        traj("u0", [hours(0)]),
        traj("u1", [hours(1)]),
        traj("u1", [hours(2)]),
    ]
    parts = split(trajs, SplitSpec(0.6, 0.2, 0.2))
    assert [user for user, _ in parts["train"]] == ["u0", "u1", "u1"]
    assert parts["val"] == [] and parts["test"] == []


def test_split_per_user_is_per_user_not_global():
    a = [traj("u0", [hours(i)]) for i in range(5)]
    b = [traj("u1", [hours(i + 100)]) for i in range(5)]
    parts = split(a + b, SplitSpec(0.6, 0.2, 0.2))
    for name in ("train", "val", "test"):
        users = {user for user, _ in parts[name]}
        assert users == {"u0", "u1"}, name
