"""The trajectory ranges held equal to the per-point objects of conftest.

``build_trajectories``, ``cut_trajectories``, ``filter_trajectories`` and
``split_per_user`` work on row ranges; the conftest versions build one
``TrajPoint`` per row and one ``Trajectory`` per piece. On seeded random
check-in tables, read from a file and given as a record list, both must
give the same trajectories, pieces, survivors and splits in the same order.
The matched dyna a map-matching run writes from columns must equal, byte
for byte, the file written from the per-point records.
"""

import random
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

from conftest import (
    T0,
    TrajPoint,
    Trajectory,
    build_trajectories as oracle_build,
    cut_trajectory as oracle_cut,
    filter_trajectories as oracle_filter,
    split_per_user as oracle_split,
)
from stkit.atomic import _MISSING, DynaRecord, parse_table, read_table, write_table
from stkit.cli import main
from stkit.dataset import load_dataset
from stkit.mapmatch import MatchParams, build_road_network, viterbi_match
from stkit.pipeline import (
    SplitSpec,
    TrajWindowSpec,
    cut_trajectories,
    filter_trajectories,
    split_per_user,
)
from stkit.synthetic import generate_synthetic, save_synthetic
from stkit.tensorize import build_trajectories


def objects(trajs):
    """Range trajectories as the oracle's objects."""
    props = [(name, trajs.table.prop(name)) for name in trajs.table.prop_names]
    rows = trajs.rows.tolist()
    points = [
        TrajPoint(loc, t, {k: c.at(r) for k, c in props if c.at(r) is not _MISSING})
        for loc, t, r in zip(trajs.values("location"), trajs.values("time"), rows)
    ]
    ptr = trajs.ptr.tolist()
    return [Trajectory(u, points[lo:hi]) for u, lo, hi in zip(trajs.users, ptr, ptr[1:])]


def random_checkins(rng):
    """Check-ins of users whose ids are not in first-appearance order, on a
    3-hour grid so that times tie, with None locations and a user whose one
    check-in makes one piece."""
    users = rng.sample([f"u{k:02d}" for k in range(40)], rng.randint(2, 7))
    weights = [rng.choice([1, 4, 12]) for _ in users]
    records = []
    for n in range(rng.randint(20, 90)):
        user = rng.choices(users, weights)[0]
        time = T0 + timedelta(hours=3 * rng.randrange(0, 8 * 60))
        location = None if rng.random() < 0.2 else f"g{min(int(rng.expovariate(0.6)), 9)}"
        records.append(DynaRecord(f"d{n}", "trajectory", time, user, location, {"v": n % 4}))
    lonely = f"u{rng.randrange(40, 50)}"
    at = rng.randrange(len(records) + 1)
    records.insert(at, DynaRecord("d-lonely", "trajectory", T0, lonely, "g0", {"v": 0}))
    return records


def tables(seed):
    """A seed's check-ins as a record list and as the table read back from its file."""
    records = random_checkins(random.Random(seed))
    return [records, read_table("dyna", write_table("dyna", records))]


CUTS = [
    TrajWindowSpec("time", 72 * 3600),
    TrajWindowSpec("time", 9 * 3600),
    TrajWindowSpec("length", 1),
    TrajWindowSpec("length", 4),
]
# (min_points, min_trajs_per_user, min_visits_per_location): none; trimming
# with min_points 0, so pieces can empty; and thresholds that cascade.
THRESHOLDS = [(0, 0, 0), (0, 0, 2), (0, 2, 3), (2, 2, 2), (3, 2, 4), (1, 3, 3), (4, 1, 6)]
SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_trajectories_equal_the_objects(seed):
    for table in tables(seed):
        assert objects(build_trajectories(table)) == oracle_build(table)


@pytest.mark.parametrize("seed", SEEDS)
def test_cut_filter_and_split_equal_the_objects(seed):
    spec = SplitSpec(0.6, 0.2, 0.2)
    for table in tables(seed):
        trajs, want = build_trajectories(table), oracle_build(table)
        for cut in CUTS:
            pieces = cut_trajectories(trajs, cut)
            want_pieces = [p for t in want for p in oracle_cut(t, cut)]
            assert objects(pieces) == want_pieces
            for points, users, visits in THRESHOLDS:
                kept = filter_trajectories(pieces, points, users, visits)
                want_kept = oracle_filter(want_pieces, points, users, visits)
                assert objects(kept) == want_kept, (cut, points, users, visits)
                splits = split_per_user(kept, spec)
                want_splits = oracle_split(want_kept, spec)
                assert {k: objects(v) for k, v in splits.items()} == want_splits


def test_the_thresholds_cascade_and_trim_to_empty_pieces():
    """The random tables reach what the thresholds are there for: a piece
    that survives the first pass but not a later one, and a piece that the
    first pass's trimming leaves with no points."""
    cascades = emptied = 0
    for seed in SEEDS:
        table = tables(seed)[0]
        for cut in CUTS:
            pieces = [p for t in oracle_build(table) for p in oracle_cut(t, cut)]
            for points, users, visits in THRESHOLDS:
                kept = oracle_filter(pieces, points, users, visits)
                # The first pass drops pieces by length and by user count
                # before it trims, so a later pass dropped any piece more.
                first = [t for t in pieces if len(t) >= points]
                per_user = Counter(t.user_id for t in first)
                first = [t for t in first if per_user[t.user_id] >= users]
                cascades += len(kept) < len(first)
                seen = Counter(p.location for t in first for p in t.points)
                emptied += any(
                    all(p.location is not None and seen[p.location] < visits for p in t.points)
                    for t in first
                )
    assert cascades and emptied


@pytest.mark.parametrize("seed", SEEDS)
def test_no_split_holds_an_empty_piece(seed):
    """Whatever the thresholds and the cut, every piece the filter keeps and
    every piece of every split has a point: a piece the location filter
    empties is dropped, with min_points 0 too."""
    spec = SplitSpec(0.6, 0.2, 0.2)
    for table in tables(seed):
        trajs = build_trajectories(table)
        for cut in CUTS:
            for points, users, visits in THRESHOLDS:
                kept = filter_trajectories(cut_trajectories(trajs, cut), points, users, visits)
                assert (np.diff(kept.ptr) > 0).all(), (cut, points, users, visits)
                for split in split_per_user(kept, spec).values():
                    assert (np.diff(split.ptr) > 0).all(), (cut, points, users, visits)


def test_a_user_whose_pieces_are_all_emptied_is_dropped():
    """User a's two pieces visit locations seen once each. Trimming those
    locations empties both pieces, so a has no piece left to count toward
    min_trajs_per_user, even with min_points 0."""
    hour = timedelta(hours=1)
    rows = [("a", 0, "rare0"), ("a", 100, "rare1")]
    rows += [(user, 10 * k, f"g{k % 2}") for user in ("b", "c") for k in range(4)]
    records = [
        DynaRecord(f"d{n}", "trajectory", T0 + t * hour, user, loc, {})
        for n, (user, t, loc) in enumerate(rows)
    ]
    pieces = cut_trajectories(build_trajectories(records), TrajWindowSpec("time", 24 * 3600))
    assert pieces.users.count("a") == 2
    kept = filter_trajectories(pieces, 0, 1, 2)
    assert "a" not in kept.users and set(kept.users) == {"b", "c"}
    assert (np.diff(kept.ptr) > 0).all()
    assert "a" not in {t.user_id for t in oracle_filter(objects(pieces), 0, 1, 2)}


def shuffled_traces(tmp_path, seed):
    """A synthetic trace dataset whose dyna rows are shuffled, with some
    times made equal within a user and a property column with empty cells."""
    data = tmp_path / f"traces{seed}"
    save_synthetic(
        generate_synthetic(
            "trajectories",
            {"n": 4, "n_trajectories": 4, "route_segments": 6, "points_per_segment": 2,
             "noise_sigma_m": 5.0, "name": "traces"},
            seed=seed,
        ),
        data,
    )
    rng = random.Random(seed)
    rows = parse_table("dyna", (data / "traces.dyna").read_bytes())
    rows = [
        replace(r, time=r.time.replace(second=0, minute=r.time.minute // 10 * 10),
                properties={**r.properties, "speed": rng.choice([None, 1, 2.5, "slow"])})
        for r in rows
    ]
    rng.shuffle(rows)
    (data / "traces.dyna").write_bytes(write_table("dyna", rows))
    return data


@pytest.mark.parametrize("seed", [3, 11])
def test_matched_dyna_equals_the_file_of_per_point_records(tmp_path, seed):
    data = shuffled_traces(tmp_path, seed)
    argv = ["run", "--task", "map_matching", "--model", "HMM", "--dataset", str(data),
            "--output_dir", str(tmp_path / "out")]
    assert main(argv) == 0
    (written,) = (tmp_path / "out").glob("*/traces_matched.dyna")

    ds = load_dataset(data)
    network = build_road_network(ds.geo, ds.rel)
    matched = []
    for traj in oracle_build([d for d in ds.dyna if d.dyna_type == "trajectory"]):
        points = [(p.properties["lon"], p.properties["lat"]) for p in traj.points]
        result = viterbi_match(network, points, MatchParams())
        for p, m in zip(traj.points, result.matched):
            matched.append(DynaRecord(
                f"m{len(matched)}", "trajectory", p.time, traj.user_id,
                m.segment_id if m else None, dict(p.properties),
            ))
    assert written.read_bytes() == write_table("dyna", matched)
