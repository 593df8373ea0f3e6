"""Acceptance suite: one test per shipped guarantee, tolerances pinned inline.

`pytest -v` prints one pass/fail line per criterion. Oracles are independent
reimplementations (naive loops, exhaustive enumeration, Floyd-Warshall), not
calls back into the code under test.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    TABLE_GENERATOR_KINDS,
    clean_dataset,
    inject_faults,
    object_network,
    project_to_segment,
    random_table,
    seeded_fault_subset,
)
from stkit.atomic import parse_table, write_table
from stkit.baselines import ha_fit, var_fit
from stkit.config import CLI_KEYS, DEFAULTS, load_config
from stkit.dataset import validate_dataset
from stkit.evaluate import (
    evaluate_forecast,
    match_metrics,
    ranking_metrics,
    regression_metrics,
)
from stkit.mapmatch import (
    Candidate,
    MatchParams,
    build_road_network,
    candidate_segments,
    haversine_m,
    shortest_route,
    viterbi_decode,
    viterbi_match,
)
from stkit.pipeline import (
    SplitSpec,
    WindowSpec,
    make_batches,
    make_windows,
    split_chronological,
    split_windows,
)
from stkit.runner import cmd_run, cmd_tune
from stkit.synthetic import generate_synthetic, save_synthetic
from stkit.tensorize import build_trajectories


def test_criterion_01_atomic_roundtrip_and_fault_detection():
    """1000 random tables survive write/parse byte-faithfully; every seeded
    fault is reported exactly once with zero false positives; under 30 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    for i in range(1000):
        gen = TABLE_GENERATOR_KINDS[i % len(TABLE_GENERATOR_KINDS)]
        kind, records = random_table(gen, rng)
        assert parse_table(kind, write_table(kind, records)) == records

    assert validate_dataset(clean_dataset()).errors == []
    for seed in range(25):
        names = seeded_fault_subset(seed)
        broken, expected = inject_faults(clean_dataset(), names)
        report = validate_dataset(broken)
        assert len(report.errors) == len(expected)  # zero false positives
        for table, fragment in expected:
            hits = [
                f
                for f in report.errors
                if f.table == table and fragment in f.message
            ]
            assert len(hits) == 1, (table, fragment)
    assert time.perf_counter() - started < 30.0


def _naive_regression(y, yhat, mask, floor):
    """Pure-python scalar-loop oracle for the six pointwise metrics."""
    pairs = [
        (float(t), float(p))
        for t, p, m in zip(y.ravel(), yhat.ravel(), mask.ravel())
        if m
    ]
    n = len(pairs)
    mae = sum(abs(p - t) for t, p in pairs) / n
    mse = sum((p - t) ** 2 for t, p in pairs) / n
    rmse = math.sqrt(mse)
    kept = [(t, p) for t, p in pairs if abs(t) >= floor and t != 0]
    if kept:
        mape = 100.0 * sum(abs((p - t) / t) for t, p in kept) / len(kept)
    else:
        mape = math.nan
    mean_y = sum(t for t, _ in pairs) / n
    ss = sum((t - mean_y) ** 2 for t, _ in pairs)
    if ss == 0.0:
        r2 = evar = math.nan
    else:
        sse = sum((p - t) ** 2 for t, p in pairs)
        r2 = 1.0 - sse / ss
        errs = [p - t for t, p in pairs]
        mean_e = sum(errs) / n
        var_e = sum((e - mean_e) ** 2 for e in errs) / n
        evar = 1.0 - var_e / (ss / n)
    return {"mae": mae, "mse": mse, "rmse": rmse, "mape": mape, "r2": r2, "evar": evar}


def _close(a, b, tol=1e-12):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(b))


def test_criterion_02_regression_metrics_match_naive_loops():
    """500 random draws: all six metrics within 1e-12 relative of a scalar
    loop; per-horizon reports equal the single-slice calls exactly."""
    rng = np.random.default_rng(2)
    for _ in range(500):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        y = rng.normal(scale=10.0, size=shape)
        y[rng.random(shape) < 0.1] = 0.0  # exercise the zero-truth drop
        yhat = y + rng.normal(size=shape)
        mask = rng.random(shape) < 0.8
        if not mask.any():
            mask.flat[0] = True
        floor = float(rng.choice([0.0, 5.0]))
        got = regression_metrics(y, yhat, mask, mape_floor=floor)
        want = _naive_regression(y, yhat, mask, floor)
        for key, val in want.items():
            assert _close(got[key], val), (key, got[key], val)

    for _ in range(50):
        H = int(rng.integers(1, 6))
        shape = (H, int(rng.integers(2, 5)), 2)
        truth = rng.normal(scale=10.0, size=shape)
        pred = truth + rng.normal(size=shape)
        mask = rng.random(shape) < 0.9
        mask[:, 0, 0] = True
        report = evaluate_forecast(pred, truth, mask, horizons=range(1, H + 1))
        for h in range(1, H + 1):
            direct = regression_metrics(truth[h - 1], pred[h - 1], mask[h - 1])
            assert report.horizons[h] == direct
        assert report.aggregate == regression_metrics(truth, pred, mask)


def test_criterion_03_ranking_metric_pins_and_ordering():
    """Rank-1 pins MRR=NDCG=1; rank-2 at K=5 pins MRR=0.5 and
    NDCG=1/log2(3) within 1e-12; NDCG >= MRR on 10000 random cases."""
    top = ranking_metrics([("t", ["t", "a", "b"])], k=5)
    assert top["mrr_at_k"] == 1.0
    assert top["ndcg_at_k"] == 1.0

    second = ranking_metrics([("t", ["a", "t", "b"])], k=5)
    assert abs(second["mrr_at_k"] - 0.5) <= 1e-12
    assert abs(second["ndcg_at_k"] - 1.0 / math.log2(3.0)) <= 1e-12

    rng = np.random.default_rng(3)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        cands = [f"c{i}" for i in range(n)]
        truth = "t"
        if rng.random() < 0.9:
            cands[int(rng.integers(n))] = truth
        k = int(rng.integers(1, 9))
        m = ranking_metrics([(truth, cands)], k=k)
        assert m["ndcg_at_k"] + 1e-15 >= m["mrr_at_k"]


def test_criterion_04_mape_floor_ignores_subfloor_truth():
    """With the reporting floor at 5, rewriting truth cells whose magnitude
    sits below 5 (and their predictions) leaves MAPE bitwise unchanged."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        y = rng.integers(0, 20, size=shape).astype(np.float64)
        y.flat[0] = 10.0  # keep at least one cell above the floor
        yhat = y + rng.normal(size=shape)
        base = regression_metrics(y, yhat, mape_floor=5.0)["mape"]

        sub = np.abs(y) < 5.0
        y2 = y.copy()
        yhat2 = yhat.copy()
        y2[sub] = rng.uniform(0.0, 4.9, size=int(sub.sum()))
        yhat2[sub] = rng.normal(scale=50.0, size=int(sub.sum()))
        if sub.any():
            assert not np.array_equal(y2, y)
        assert regression_metrics(y2, yhat2, mape_floor=5.0)["mape"] == base


def test_criterion_05_window_counts_split_sizes_and_leakage():
    """T=100 with 12-in/12-out yields exactly 77 samples; a 7:1:2 split of
    100 slots is 70/10/20; no window ever mixes slots across segments."""
    T = 100
    values = np.arange(T, dtype=np.float64)[:, None].repeat(2, axis=1)
    mask = np.ones_like(values, dtype=bool)

    assert len(make_windows(values, mask, WindowSpec(12, 12))) == 77

    train, val, test = split_chronological(T, SplitSpec(0.7, 0.1, 0.2))
    assert (len(train), len(val), len(test)) == (70, 10, 20)
    assert (train.stop, val.stop, test.stop) == (70, 80, 100)

    splits = split_windows(values, mask, WindowSpec(4, 2), SplitSpec(0.7, 0.1, 0.2))
    bounds = {"train": (0, 70), "val": (70, 80), "test": (80, 100)}
    slot_sets = {}
    for name, windows in splits.items():
        lo, hi = bounds[name]
        used = set()
        for b in make_batches(windows, batch_size=8):
            for x_slots, y_slots, y in zip(b["x_slots"], b["y_slots"], b["y"]):
                slots = np.concatenate([x_slots, y_slots])
                assert slots.min() >= lo and slots.max() < hi
                # Window contents really come from those slots.
                assert np.array_equal(y[:, 0], y_slots.astype(np.float64))
                used.update(int(i) for i in slots)
        slot_sets[name] = used
    assert slot_sets["train"] & slot_sets["test"] == set()
    assert slot_sets["train"] & slot_sets["val"] == set()
    assert slot_sets["val"] & slot_sets["test"] == set()


def _spectral_radius(coefs):
    p, k, _ = coefs.shape
    companion = np.zeros((p * k, p * k))
    companion[:k] = np.concatenate(list(coefs), axis=1)
    if p > 1:
        companion[k:, : (p - 1) * k] = np.eye((p - 1) * k)
    return max(abs(np.linalg.eigvals(companion)))


def test_criterion_06_var_recovers_coefficients_and_rollout():
    """Noiseless VAR(1) and VAR(2) with k<=4 cells: fitted coefficients
    within 1e-6 of truth; multi-step rollout within 1e-9 of iterating the
    fitted recurrence by hand; whole test under 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    for order, k in ((1, 4), (2, 3)):
        while True:
            coefs = rng.normal(scale=0.5 / k, size=(order, k, k))
            rho = _spectral_radius(coefs)
            if 0.3 <= rho <= 0.9:
                break
        coefs *= 0.8 / rho
        intercept = rng.normal(scale=2.0, size=k)
        width = 1 + order * k
        T = order + width + 8
        values = np.empty((T, k))
        values[:order] = rng.normal(scale=100.0, size=(order, k))
        for t in range(order, T):
            x = intercept.copy()
            for i in range(order):
                x += coefs[i] @ values[t - 1 - i]
            values[t] = x

        # ridge=0: the system is noiseless and exactly determined, so the
        # stabilizer would only bias the comparison against ground truth.
        model = var_fit(values, None, order=order, ridge=0.0)
        assert np.max(np.abs(model.coefs - coefs)) < 1e-6
        assert np.max(np.abs(model.intercept - intercept)) < 1e-6

        history = values[-order:]
        batch = {"x": history[None], "y_slots": np.zeros((1, 6), dtype=np.int64)}
        rolled = model.predict(batch)[0]
        buf = [row.copy() for row in history]
        for step in range(6):
            nxt = model.intercept.copy()
            for i in range(model.order):
                nxt = nxt + model.coefs[i] @ buf[-1 - i]
            buf.append(nxt)
            assert np.max(np.abs(rolled[step] - nxt)) < 1e-9
    assert time.perf_counter() - started < 10.0


def test_criterion_07_historical_average_exact_on_periodic_data():
    """On data that repeats with the model's period, HA forecasts are exact:
    MAE is 0.0 (bitwise) at horizons 3, 6, and 12."""
    rng = np.random.default_rng(7)
    pattern = rng.integers(10, 90, size=(12, 3)).astype(np.float64)
    values = np.tile(pattern, (8, 1))  # T = 96
    mask = np.ones_like(values, dtype=bool)

    model = ha_fit(values[:48], mask[:48], period=12, start_slot=0)
    windows = make_windows(values[48:], mask[48:], WindowSpec(12, 12), start_slot=48)
    batch = make_batches(windows, batch_size=len(windows))[0]
    pred = model.predict(batch)
    assert np.array_equal(pred, batch["y"])

    report = evaluate_forecast(
        np.moveaxis(pred, 1, 0),
        np.moveaxis(batch["y"], 1, 0),
        np.moveaxis(batch["y_mask"], 1, 0),
        horizons=(3, 6, 12),
    )
    assert report.aggregate["mae"] == 0.0
    for h in (3, 6, 12):
        assert report.horizons[h]["mae"] == 0.0


def _enumerate_best(emissions, transitions):
    """Exhaustive path search, accumulating in the decoder's addition order."""
    sizes = [len(e) for e in emissions]
    best_score, best_path = -math.inf, None
    for path in itertools.product(*(range(n) for n in sizes)):
        s = float(emissions[0][path[0]])
        for i in range(1, len(path)):
            s = s + float(transitions[i - 1][path[i - 1], path[i]])
            s = s + float(emissions[i][path[i]])
        if s > best_score:
            best_score, best_path = s, list(path)
    return best_score, best_path


def test_criterion_08a_viterbi_equals_exhaustive_enumeration():
    """200 random chains (up to 6 steps x 4 candidates): decoder score and
    argmax path equal brute-force enumeration, float-exact."""
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(200):
        sizes = rng.integers(1, 5, size=rng.integers(1, 7))
        emissions = [rng.normal(size=n) for n in sizes]
        transitions = [
            rng.normal(size=(sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)
        ]
        score, path = viterbi_decode(emissions, transitions)
        want_score, want_path = _enumerate_best(emissions, transitions)
        assert score == want_score
        assert path == want_path
    assert time.perf_counter() - started < 60.0


def trajectory_points(ds):
    """Each trajectory's user and its points' (lon, lat) as an [n, 2] array."""
    trajs = build_trajectories([d for d in ds.dyna if d.dyna_type == "trajectory"])
    lon, lat = (trajs.table.prop(name).tolist() for name in ("lon", "lat"))
    points = np.array([lon, lat]).T[trajs.rows]
    ptr = trajs.ptr.tolist()
    return [(user, points[lo:hi]) for user, lo, hi in zip(trajs.users, ptr, ptr[1:])]


def test_criterion_08b_zero_noise_matching_is_perfect():
    """Points exactly on a Manhattan grid: every trajectory's matched route
    equals the ground truth, so RMF=0.0, AN=1.0, AL=1.0 bitwise."""
    started = time.perf_counter()
    result = generate_synthetic(
        "trajectories",
        {"n": 5, "n_trajectories": 5, "route_segments": 8, "name": "clean"},
        seed=5,
    )
    ds, truth = result.dataset, result.truth_routes
    network = build_road_network(ds.geo, ds.rel)
    lengths = network.segment_lengths()
    trajs = trajectory_points(ds)
    assert len(trajs) == 5
    for user, points in trajs:
        res = viterbi_match(network, points, MatchParams())
        scores = match_metrics(truth[user], res.route(), lengths)
        assert scores["rmf"] == 0.0
        assert scores["an"] == 1.0
        assert scores["al"] == 1.0
    assert time.perf_counter() - started < 60.0


def test_criterion_08c_noisy_matching_recovers_most_segments():
    """10 m gaussian GPS noise on a 6x6 grid: pooled segment recovery (AN)
    stays at or above 0.95. Measured at this seed: AN = 1.000 (104/104)."""
    started = time.perf_counter()
    result = generate_synthetic(
        "trajectories",
        {
            "n": 6,
            "n_trajectories": 10,
            "route_segments": 12,
            "points_per_segment": 3,
            "noise_sigma_m": 10.0,
            "name": "noisy",
        },
        seed=21,
    )
    ds, truth = result.dataset, result.truth_routes
    network = build_road_network(ds.geo, ds.rel)
    lengths = network.segment_lengths()
    trajs = trajectory_points(ds)
    n_correct = 0
    n_true = 0
    for user, points in trajs:
        res = viterbi_match(network, points, MatchParams())
        scores = match_metrics(truth[user], res.route(), lengths)
        n_correct += scores["n_correct"]
        n_true += scores["n_true"]
    achieved = n_correct / n_true
    assert achieved >= 0.95, f"pooled AN {achieved:.4f} over {n_true} segments"
    assert time.perf_counter() - started < 60.0


def _linear_scan_candidates(segments, lon, lat, params):
    """Every segment projected, then the same radius test, sort and cap."""
    out = []
    for gid, seg in segments.items():
        plon, plat, d, offset = project_to_segment(seg, lon, lat)
        if d <= params.radius_m:
            out.append(Candidate(gid, plon, plat, d, offset))
    out.sort(key=lambda c: (c.distance_m, c.segment_id))
    return out[: params.max_candidates]


def test_criterion_08d_indexed_candidates_equal_linear_scan():
    """The bounding-box candidate filter returns exactly what a linear scan
    projecting every segment returns: for random points at radii from 1e-9 m
    to wider than the network, and for every network vertex at 1e-9 and
    1e-12 m."""
    started = time.perf_counter()
    roads = generate_synthetic("road_network", {"n": 5}).dataset
    network = build_road_network(roads.geo, roads.rel)
    segments, _ = object_network(roads.geo, roads.rel)
    rng = np.random.default_rng(84)
    vertices = sorted({c for s in segments.values() for c in s.coords})
    lons = [v[0] for v in vertices]
    lats = [v[1] for v in vertices]
    span_lon = max(lons) - min(lons)
    span_lat = max(lats) - min(lats)
    # Ten diagonals of the extent: past every segment from any query point.
    wide = 10.0 * haversine_m(min(lons), min(lats), max(lons), max(lats))
    queries = []
    for _ in range(300):
        lon = min(lons) - 0.3 * span_lon + 1.6 * span_lon * rng.random()
        lat = min(lats) - 0.3 * span_lat + 1.6 * span_lat * rng.random()
        queries += [(lon, lat, r) for r in (1e-9, 40.0, 150.0, 600.0, wide)]
    # 1e-12 m is below half a float step of the coordinates: the query box
    # collapses onto the point, and boxes touching it must still count.
    queries += [(lon, lat, r) for lon, lat in vertices for r in (1e-9, 1e-12)]
    total_hits = 0
    for lon, lat, radius in queries:
        params = MatchParams(radius_m=radius, max_candidates=10_000)
        got = candidate_segments(network, lon, lat, params)
        assert got == _linear_scan_candidates(segments, lon, lat, params)
        if radius == wide:
            assert len(got) == len(segments)
        if radius < 1e-6 and (lon, lat) in vertices:
            assert got and got[0].distance_m == 0.0
        total_hits += len(got)
    assert total_hits > 0
    assert time.perf_counter() - started < 60.0


def _floyd_warshall_start_distances(segments, out_edges):
    """All-pairs cost to travel from the start of u to the start of v,
    where traversing a segment costs its length. Diagonal is 0."""
    ids = sorted(segments)
    pos = {g: i for i, g in enumerate(ids)}
    n = len(ids)
    D = np.full((n, n), math.inf)
    np.fill_diagonal(D, 0.0)
    for u in ids:
        w = segments[u].length_m
        for v in out_edges[u]:
            D[pos[u], pos[v]] = min(D[pos[u], pos[v]], w)
    for mid in range(n):
        D = np.minimum(D, D[:, [mid]] + D[[mid], :])
    return ids, pos, D


def _oracle_route_m(segments, out_edges, pos, D, a, b):
    best = math.inf
    if a.segment_id == b.segment_id and b.offset_m >= a.offset_m:
        best = b.offset_m - a.offset_m
    leave = segments[a.segment_id].length_m - a.offset_m
    for succ in out_edges[a.segment_id]:
        via = leave + D[pos[succ], pos[b.segment_id]] + b.offset_m
        best = min(best, via)
    return best


def test_criterion_08e_routing_matches_floyd_warshall():
    """On random directed networks of at most 20 segments, the on-demand
    route distance agrees with an all-pairs Floyd-Warshall oracle to 1e-9
    relative, including unreachable pairs."""
    started = time.perf_counter()
    rng = np.random.default_rng(85)
    from stkit.atomic import GeoUnit, RelationRecord

    for trial in range(8):
        m = int(rng.integers(4, 21))
        geos = []
        for i in range(m):
            length_deg = float(rng.uniform(0.0005, 0.005))
            lat = 0.002 * i
            geos.append(
                GeoUnit(
                    f"s{i}",
                    "LineString",
                    ((0.0, lat), (length_deg, lat)),
                    {},
                )
            )
        rels = []
        rid = 0
        for u in range(m):
            for v in range(m):
                if u != v and rng.random() < 0.25:
                    rels.append(RelationRecord(f"r{rid}", "geo", f"s{u}", f"s{v}", {}))
                    rid += 1
        network = build_road_network(geos, rels)
        segments, out_edges = object_network(geos, rels)
        ids, pos, D = _floyd_warshall_start_distances(segments, out_edges)

        for _ in range(25):
            sa, sb = (ids[int(rng.integers(m))] for _ in range(2))
            a = Candidate(sa, 0.0, 0.0, 0.0, float(rng.uniform(0, segments[sa].length_m)))
            b = Candidate(sb, 0.0, 0.0, 0.0, float(rng.uniform(0, segments[sb].length_m)))
            got, route = shortest_route(network, a, b)
            want = _oracle_route_m(segments, out_edges, pos, D, a, b)
            if math.isinf(want):
                assert math.isinf(got) and route is None
                continue
            assert abs(got - want) <= 1e-9 * max(1.0, want)
            # The returned segment chain prices out to the same distance.
            if len(route) == 1:
                recomputed = b.offset_m - a.offset_m
            else:
                mids = sum(segments[g].length_m for g in route[1:-1])
                recomputed = segments[sa].length_m - a.offset_m + mids + b.offset_m
            assert abs(recomputed - got) <= 1e-9 * max(1.0, got)
    assert time.perf_counter() - started < 60.0


@pytest.fixture()
def bench_dataset(tmp_path):
    save_synthetic(
        generate_synthetic(
            "graph_flow",
            {"n_nodes": 3, "n_slots": 60, "period": 4, "name": "bench"},
            seed=0,
        ),
        tmp_path / "bench",
    )
    return tmp_path / "bench"


def _bench_config(dataset, out, **extra):
    return load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "HA",
            "dataset": str(dataset),
            "output_dir": str(out),
        },
        file_values={"input_window": 4, "output_window": 2, "ha_period": 4, **extra},
    )


def test_criterion_09_reproducible_runs_and_exhaustive_grid(bench_dataset, tmp_path):
    """Identical config and seed give byte-identical metrics.json; a 2x3
    parameter grid runs exactly 6 trials and the reported best equals a
    rescan of all trial objectives."""
    first = cmd_run(_bench_config(bench_dataset, tmp_path / "a"))
    second = cmd_run(_bench_config(bench_dataset, tmp_path / "b"))
    bytes_a = (Path(first.output_dir) / "metrics.json").read_bytes()
    bytes_b = (Path(second.output_dir) / "metrics.json").read_bytes()
    assert bytes_a == bytes_b

    space = tmp_path / "space.json"
    space.write_text(
        json.dumps(
            {
                "ha_period": {"values": [3, 4]},
                "scaler": {"values": ["none", "zscore", "minmax"]},
            }
        ),
        "utf-8",
    )
    cfg = _bench_config(bench_dataset, tmp_path / "tune", space_file=str(space))
    result = cmd_tune(cfg)
    assert len(result.trials) == 6
    combos = {tuple(sorted(t.params.items())) for t in result.trials}
    assert len(combos) == 6  # the full cross product, no repeats

    tune_dirs = list((tmp_path / "tune").glob("tune_*/search.json"))
    assert len(tune_dirs) == 1
    blob = json.loads(tune_dirs[0].read_text("utf-8"))
    assert blob["n_trials"] == 6
    rescan = min(blob["trials"], key=lambda t: (t["objective"], t["index"]))
    assert blob["best_trial"] == rescan["index"]
    assert blob["best_objective"] == rescan["objective"]
    assert result.best.params == rescan["params"]


def test_criterion_10_config_precedence_cli_file_defaults():
    """For every direct-flag key: a CLI value beats the config file, the
    config file beats the built-in default, and provenance records which
    layer won."""
    alt = {
        "task": ("traffic_state_pred", "map_matching"),
        "model": ("HA", "VAR"),
        "dataset": ("ds_file", "ds_cli"),
        "config_file": ("f.json", "g.json"),
        "seed": (7, 13),
        "output_dir": ("out_file", "out_cli"),
        "batch_size": (16, 64),
        "space_file": ("s.json", "t.json"),
        "search_alg": ("RandomSearch", "GridSearch"),
    }
    assert set(alt) == set(CLI_KEYS)
    file_values = {k: v[0] for k, v in alt.items()}
    cli_values = {k: v[1] for k, v in alt.items()}

    cfg = load_config(cli_args=cli_values, file_values=file_values)
    for key, (file_v, cli_v) in alt.items():
        assert cfg[key] == cli_v
        assert cfg.provenance[key] == "cli"

    cfg = load_config(cli_args={k: None for k in CLI_KEYS}, file_values=file_values)
    for key, (file_v, _) in alt.items():
        assert cfg[key] == file_v
        assert cfg.provenance[key] == "user_file"

    cfg = load_config()
    for key in CLI_KEYS:
        assert cfg[key] == DEFAULTS[key]
        assert cfg.provenance[key] == "default"
