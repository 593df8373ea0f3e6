"""Synthetic dataset generators: structure, determinism, ground truth."""

import json

import numpy as np
import pytest

from conftest import csv_writer_table, record_synthetic, scan_relations, successors
from stkit.baselines import ha_fit, var_fit
from stkit.dataset import load_dataset, validate_dataset
from stkit.mapmatch import MatchParams, build_road_network, candidate_segments
from stkit.synthetic import TRUTH_ROUTES_FILE, generate_synthetic, save_synthetic
from stkit.tensorize import build_time_axis, dyna_to_graph_tensor


def tensorize_graph(ds):
    axis = build_time_axis(ds.dyna.field("time").present(), ds.manifest.interval_seconds)
    return dyna_to_graph_tensor(
        ds.dyna, [g.geo_id for g in ds.geo], axis, ds.manifest.features
    )


# -- graph flow ---------------------------------------------------------------


def test_graph_flow_shape_and_validity():
    res = generate_synthetic("graph_flow", {"n_nodes": 3, "n_slots": 10}, seed=1)
    ds = res.dataset
    assert res.truth_routes is None
    assert len(ds.geo) == 3
    assert len(ds.rel) == 6  # ring, both directions
    assert len(ds.dyna) == 30
    assert validate_dataset(ds).errors == []
    tensor, mask = tensorize_graph(ds)
    assert tensor.shape == (10, 3, 1)
    assert mask.values.all()


def test_graph_flow_periodic_mode_repeats():
    res = generate_synthetic(
        "graph_flow", {"n_nodes": 2, "n_slots": 24, "period": 6}, seed=3
    )
    tensor, _ = tensorize_graph(res.dataset)
    v = tensor.values[:, :, 0]
    assert np.array_equal(v[0:6], v[6:12])
    assert np.array_equal(v[0:6], v[18:24])
    # Integer-valued by construction, so periodic averages can be exact.
    assert np.array_equal(v, np.round(v))


def test_graph_flow_periodic_ha_is_exact():
    res = generate_synthetic(
        "graph_flow", {"n_nodes": 2, "n_slots": 48, "period": 4}, seed=5
    )
    tensor, mask = tensorize_graph(res.dataset)
    model = ha_fit(tensor.values[:24], mask.values[:24], period=4)
    pred = model.predict_slots(np.arange(24, 48))
    assert np.array_equal(pred, tensor.values[24:])


def test_graph_flow_var_mode_recovery():
    coefs = [[[0.3, 0.1], [0.0, 0.4]]]
    res = generate_synthetic(
        "graph_flow",
        {
            "n_nodes": 2,
            "n_slots": 20,
            "mode": "var",
            "coefs": coefs,
            "intercept": [5.0, -2.0],
            "x0": [[40.0, -30.0]],
        },
        seed=7,
    )
    tensor, _ = tensorize_graph(res.dataset)
    model = var_fit(tensor.values[:, :, 0], None, order=1)
    assert np.max(np.abs(model.coefs - np.asarray(coefs))) < 1e-6
    assert np.max(np.abs(model.intercept - [5.0, -2.0])) < 1e-6


def test_graph_flow_missing_rate_thins_rows():
    full = generate_synthetic("graph_flow", {"n_nodes": 4, "n_slots": 50}, seed=11)
    sparse = generate_synthetic(
        "graph_flow", {"n_nodes": 4, "n_slots": 50, "missing_rate": 0.3}, seed=11
    )
    assert len(sparse.dataset.dyna) < len(full.dataset.dyna)
    assert validate_dataset(sparse.dataset).errors == []


def test_graph_flow_unknown_mode():
    with pytest.raises(ValueError):
        generate_synthetic("graph_flow", {"mode": "brownian"})
    with pytest.raises(ValueError):
        generate_synthetic("fractal_flow")


# -- grid flow ----------------------------------------------------------------


def test_grid_flow_bounds_and_period():
    res = generate_synthetic(
        "grid_flow", {"rows": 3, "cols": 2, "n_slots": 8, "period": 4}, seed=2
    )
    ds = res.dataset
    assert ds.manifest.grid_rows == 3 and ds.manifest.grid_cols == 2
    assert len(ds.grid) == 8 * 3 * 2
    assert validate_dataset(ds).errors == []
    by_slot_cell = {
        (r.time, r.row_id, r.col_id): r.properties["flow"] for r in ds.grid
    }
    times = sorted({r.time for r in ds.grid})
    for (t, i, j), v in by_slot_cell.items():
        phase_twin = times[times.index(t) % 4]
        assert v == by_slot_cell[(phase_twin, i, j)]


# -- road network -------------------------------------------------------------


def test_road_network_segment_count():
    ds = generate_synthetic("road_network", {"n": 4}).dataset
    # 2 * n * (n-1) undirected streets, two directed segments each.
    assert len(ds.geo) == 48
    assert all(g.geo_type == "LineString" for g in ds.geo)
    net = build_road_network(ds.geo, ds.rel)
    assert len(net.routes.ids) == 48


def test_road_network_counts_scale():
    for n in (2, 3, 5):
        ds = generate_synthetic("road_network", {"n": n}).dataset
        assert len(ds.geo) == 4 * n * (n - 1)


def test_road_network_no_uturns_by_default():
    ds = generate_synthetic("road_network", {"n": 3}).dataset
    net = build_road_network(ds.geo, ds.rel)

    def reverse_of(gid):
        head, a, b = gid.rsplit("_", 2)
        return f"{head}_{b}_{a}"

    for gid, succs in successors(net).items():
        assert reverse_of(gid) not in succs, gid
    with_u = generate_synthetic("road_network", {"n": 3, "allow_uturn": True}).dataset
    net_u = build_road_network(with_u.geo, with_u.rel)
    assert any(
        reverse_of(gid) in succs for gid, succs in successors(net_u).items()
    )
    assert len(with_u.rel) > len(ds.rel)


def test_road_network_interior_degree():
    # Interior nodes pass 4 streets; leaving one without U-turn leaves 3 options.
    ds = generate_synthetic("road_network", {"n": 4}).dataset
    succ = successors(build_road_network(ds.geo, ds.rel))
    into_interior = "s_n1x0_n1x1"  # ends at interior node (1,1)
    assert len(succ[into_interior]) == 3
    into_corner = "s_n0x1_n0x0"  # ends at corner (0,0)
    assert len(succ[into_corner]) == 1


@pytest.mark.parametrize("allow_uturn", [False, True], ids=["no_uturn", "uturn"])
@pytest.mark.parametrize("n", [4, 12, 40])
def test_road_network_relations_equal_the_full_scan(n, allow_uturn):
    """Indexing segment starts by node emits the relations of scanning every
    segment for each one's successors: same ids, same pairs, same order."""
    ds = generate_synthetic("road_network", {"n": n, "allow_uturn": allow_uturn}).dataset
    assert list(ds.rel) == scan_relations(ds.geo, allow_uturn)


def test_road_network_min_size():
    with pytest.raises(ValueError):
        generate_synthetic("road_network", {"n": 1})


# -- trajectories -------------------------------------------------------------


def test_trajectories_truth_routes_are_walkable():
    res = generate_synthetic(
        "trajectories", {"n": 4, "n_trajectories": 3, "route_segments": 6}, seed=4
    )
    ds = res.dataset
    net = build_road_network(ds.geo, ds.rel)
    succ = successors(net)
    assert set(res.truth_routes) == {u.usr_id for u in ds.usr}
    for user, route in res.truth_routes.items():
        assert route, user
        for gid in route:
            assert gid in net.routes.code
        for a, b in zip(route, route[1:]):
            assert b in succ[a], (a, b)


def test_trajectories_points_lie_on_their_segments():
    res = generate_synthetic(
        "trajectories",
        {"n": 3, "n_trajectories": 2, "route_segments": 4, "points_per_segment": 3},
        seed=6,
    )
    ds = res.dataset
    net = build_road_network(ds.geo, ds.rel)
    params = MatchParams(radius_m=50.0)
    by_user: dict = {}
    for d in ds.dyna:
        by_user.setdefault(d.entity_id, []).append(d)
    for user, rows in by_user.items():
        assert len(rows) == 3 * len(res.truth_routes[user])
        route_set = set(res.truth_routes[user])
        for d in rows:
            cands = candidate_segments(
                net, d.properties["lon"], d.properties["lat"], params
            )
            assert cands[0].distance_m < 1e-6
            assert any(c.segment_id in route_set for c in cands)


def test_trajectories_noise_moves_points():
    clean = generate_synthetic("trajectories", {"n": 3, "n_trajectories": 1}, seed=8)
    noisy = generate_synthetic(
        "trajectories", {"n": 3, "n_trajectories": 1, "noise_sigma_m": 10.0}, seed=8
    )
    assert clean.truth_routes == noisy.truth_routes
    moved = [
        (a.properties["lon"], a.properties["lat"])
        != (b.properties["lon"], b.properties["lat"])
        for a, b in zip(clean.dataset.dyna, noisy.dataset.dyna)
    ]
    assert all(moved)


def test_trajectories_validate_clean():
    res = generate_synthetic("trajectories", {"n": 3, "n_trajectories": 2}, seed=9)
    assert validate_dataset(res.dataset).errors == []


# -- determinism and persistence ----------------------------------------------


def read_tree(root):
    return {
        p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()
    }


@pytest.mark.parametrize(
    "kind,params",
    [
        ("graph_flow", {"n_nodes": 3, "n_slots": 12, "missing_rate": 0.2}),
        ("grid_flow", {"rows": 2, "cols": 2, "n_slots": 6}),
        ("road_network", {"n": 3}),
        ("trajectories", {"n": 3, "n_trajectories": 2, "noise_sigma_m": 5.0}),
    ],
)
def test_same_seed_byte_identical(tmp_path, kind, params):
    a = save_synthetic(generate_synthetic(kind, params, seed=42), tmp_path / "a")
    b = save_synthetic(generate_synthetic(kind, params, seed=42), tmp_path / "b")
    ta, tb = read_tree(a), read_tree(b)
    assert set(ta) == set(tb)
    for name in ta:
        assert ta[name] == tb[name], name


def test_different_seed_differs():
    a = generate_synthetic("graph_flow", {"n_nodes": 3, "n_slots": 12}, seed=1)
    b = generate_synthetic("graph_flow", {"n_nodes": 3, "n_slots": 12}, seed=2)
    va = [d.properties["flow"] for d in a.dataset.dyna]
    vb = [d.properties["flow"] for d in b.dataset.dyna]
    assert va != vb


def test_save_synthetic_round_trip(tmp_path):
    res = generate_synthetic("trajectories", {"n": 3, "n_trajectories": 2}, seed=10)
    root = save_synthetic(res, tmp_path / "traj")
    truth = json.loads((root / TRUTH_ROUTES_FILE).read_text("utf-8"))
    assert truth == res.truth_routes
    back = load_dataset(root)
    assert back.dyna == res.dataset.dyna
    flow_root = save_synthetic(
        generate_synthetic("graph_flow", {"n_nodes": 2, "n_slots": 4}), tmp_path / "f"
    )
    assert not (flow_root / TRUTH_ROUTES_FILE).exists()


# -- the column-built generators against the record-built oracle ---------------

# The three benchmark workloads' recipes (perfbench/workloads.py).
GRAPH_HA = {"n_nodes": 50, "n_slots": 2016, "interval_seconds": 300,
            "missing_rate": 0.05, "mode": "periodic", "name": "bench_graph"}
MATCH_HMM = {"n": 12, "n_trajectories": 40, "route_segments": 30,
             "points_per_segment": 3, "noise_sigma_m": 8.0, "name": "bench_traj"}
TUNE_GRID_VAR = {"rows": 10, "cols": 10, "n_slots": 1008, "interval_seconds": 600,
                 "missing_rate": 0.02, "name": "bench_grid"}

DIFFERENTIAL_CASES = {
    **{f"{kind}_defaults": (kind, {}, 0)
       for kind in ("graph_flow", "grid_flow", "road_network", "trajectories")},
    "graph_missing_0.3": ("graph_flow", {"missing_rate": 0.3}, 3),
    "graph_missing_1.0": ("graph_flow", {"missing_rate": 1.0}, 3),
    "grid_missing_0.3": ("grid_flow", {"missing_rate": 0.3}, 4),
    "grid_missing_1.0": ("grid_flow", {"missing_rate": 1.0}, 4),
    "graph_no_slots": ("graph_flow", {"n_slots": 0}, 5),
    "graph_one_slot": ("graph_flow", {"n_slots": 1, "missing_rate": 0.5}, 5),
    "graph_no_nodes": ("graph_flow", {"n_nodes": 0, "n_slots": 3}, 5),
    "grid_no_slots": ("grid_flow", {"n_slots": 0}, 5),
    "grid_one_slot": ("grid_flow", {"n_slots": 1, "missing_rate": 0.5}, 5),
    "grid_no_rows": ("grid_flow", {"rows": 0, "n_slots": 3}, 5),
    "var_noise_missing": ("graph_flow", {"mode": "var", "n_nodes": 5, "n_slots": 60,
                                         "noise_std": 0.5, "missing_rate": 0.2}, 6),
    # Row 0 holds -0.0 beside 0.0; every later value is 0.0.
    "var_signed_zeros": ("graph_flow", {"mode": "var", "n_nodes": 2, "n_slots": 5,
                                        "coefs": [[[0.0, 0.0], [0.0, 0.0]]],
                                        "intercept": [0.0, 0.0], "x0": [[-0.0, 0.0]]}, 6),
    "roads_uturn": ("road_network", {"n": 5, "allow_uturn": True}, 0),
    "traj_noise_5m": ("trajectories", {"n": 6, "n_trajectories": 7, "noise_sigma_m": 5.0}, 8),
    "traj_n40": ("trajectories", {"n": 40, "n_trajectories": 10}, 9),
    **{f"{name}_seed{seed}": (kind, params, seed)
       for seed in (1, 54, 913)
       for name, kind, params in (("graph_ha", "graph_flow", GRAPH_HA),
                                  ("match_hmm", "trajectories", MATCH_HMM),
                                  ("tune_grid_var", "grid_flow", TUNE_GRID_VAR))},
}


@pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
def test_saved_files_equal_the_record_built_oracle(tmp_path, case):
    """save_synthetic writes the same bytes, file by file, for the column-built
    dataset as for the record-built one; and each table's file is what
    csv.writer writes for the oracle's records."""
    kind, params, seed = DIFFERENTIAL_CASES[case]
    want = record_synthetic(kind, params, seed)
    got = generate_synthetic(kind, params, seed)
    assert got.truth_routes == want.truth_routes
    a = read_tree(save_synthetic(got, tmp_path / "columns"))
    b = read_tree(save_synthetic(want, tmp_path / "records"))
    assert list(a) == list(b)
    for name in a:
        assert a[name] == b[name], name
    for table_kind, records in want.dataset.tables().items():
        file = f"{want.dataset.manifest.name}.{table_kind}"
        assert a[file] == csv_writer_table(table_kind, records), file
