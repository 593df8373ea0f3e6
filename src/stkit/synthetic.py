"""Seeded synthetic dataset generators for tests, demos, and benchmarks.

Four kinds are supported:

- ``graph_flow``: sensor graph with a flow feature, either strictly periodic
  (integer-valued, so periodic-average models can be exact) or driven by a
  known vector-autoregressive recurrence.
- ``grid_flow``: rectangular grid of integer flow counts with optional
  missing cells.
- ``road_network``: n-by-n Manhattan street grid as directed segments with
  turn connectivity.
- ``trajectories``: the same street grid plus GPS traces sampled along
  random routes with configurable Gaussian noise, and the ground-truth
  segment sequence for each trace.

Everything is deterministic in (kind, params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .atomic import DynaRecord, GeoUnit, GridRecord, RelationRecord, UserUnit
from .config import write_json
from .dataset import AtomicDataset, Manifest, save_dataset
from .mapmatch import EARTH_RADIUS_M

__all__ = ["SyntheticResult", "generate_synthetic", "save_synthetic", "TRUTH_ROUTES_FILE"]

TRUTH_ROUTES_FILE = "truth_routes.json"

_M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0
_T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


@dataclass
class SyntheticResult:
    """A generated dataset plus side-channel ground truth where applicable.

    ``truth_routes`` maps user id to the true segment-id route for
    trajectory datasets; None for the other kinds.
    """

    dataset: AtomicDataset
    truth_routes: dict[str, list[str]] | None = None


def save_synthetic(result: SyntheticResult, path: Union[str, Path]) -> Path:
    """Write the dataset directory, including truth_routes.json if present."""
    root = save_dataset(result.dataset, path)
    if result.truth_routes is not None:
        write_json(root / TRUTH_ROUTES_FILE, result.truth_routes)
    return root


def generate_synthetic(
    kind: str, params: Mapping | None = None, seed: int = 0
) -> SyntheticResult:
    """Generate one synthetic dataset; see the module docstring for kinds."""
    params = dict(params or {})
    if kind == "graph_flow":
        return _graph_flow(params, seed)
    if kind == "grid_flow":
        return _grid_flow(params, seed)
    if kind == "road_network":
        return SyntheticResult(_road_network(params))
    if kind == "trajectories":
        return _trajectories(params, seed)
    raise ValueError(f"unknown synthetic kind {kind!r}")


def _graph_flow(params: Mapping, seed: int) -> SyntheticResult:
    n_nodes = int(params.get("n_nodes", 8))
    n_slots = int(params.get("n_slots", 288))
    interval = int(params.get("interval_seconds", 1800))
    mode = params.get("mode", "periodic")
    missing_rate = float(params.get("missing_rate", 0.0))
    name = params.get("name", "syn_graph")
    rng = np.random.default_rng(seed)

    if mode == "periodic":
        period = int(params.get("period", max(1, 86400 // interval)))
        base = rng.integers(20, 200, size=n_nodes).astype(np.float64)
        pattern = rng.integers(0, 80, size=(period, n_nodes)).astype(np.float64)
        slots = np.arange(n_slots)
        values = base[None, :] + pattern[slots % period]
    elif mode == "var":
        order_coefs = params.get("coefs")
        if order_coefs is None:
            A = rng.normal(size=(n_nodes, n_nodes))
            A *= 0.6 / max(abs(np.linalg.eigvals(A)))
            coefs = np.asarray([A])
        else:
            coefs = np.asarray(order_coefs, dtype=np.float64)
        p = coefs.shape[0]
        intercept = np.asarray(
            params.get("intercept", np.zeros(n_nodes)), dtype=np.float64
        )
        noise_std = float(params.get("noise_std", 0.0))
        x0 = np.asarray(params.get("x0", rng.normal(size=(p, n_nodes))), dtype=np.float64)
        values = np.empty((n_slots, n_nodes), dtype=np.float64)
        values[:p] = x0
        for t in range(p, n_slots):
            x = intercept.copy()
            for i in range(p):
                x += coefs[i] @ values[t - 1 - i]
            if noise_std > 0:
                x += rng.normal(scale=noise_std, size=n_nodes)
            values[t] = x
    else:
        raise ValueError(f"unknown graph_flow mode {mode!r}")

    geo = [
        GeoUnit(f"g{i}", "Point", ((116.0 + 0.01 * i, 39.9),), {})
        for i in range(n_nodes)
    ]
    rel = []
    for i in range(n_nodes):
        j = (i + 1) % n_nodes
        rel.append(RelationRecord(f"r{2 * i}", "geo", f"g{i}", f"g{j}", {}))
        rel.append(RelationRecord(f"r{2 * i + 1}", "geo", f"g{j}", f"g{i}", {}))
    dyna = []
    n = 0
    for t in range(n_slots):
        stamp = _T0 + timedelta(seconds=t * interval)
        for i in range(n_nodes):
            if missing_rate > 0 and rng.random() < missing_rate:
                continue
            dyna.append(
                DynaRecord(
                    f"d{n}", "state", stamp, f"g{i}", None, {"flow": float(values[t, i])}
                )
            )
            n += 1
    manifest = Manifest(
        name=name, interval_seconds=interval, features=("flow",)
    )
    return SyntheticResult(
        AtomicDataset(manifest=manifest, geo=geo, rel=rel, dyna=dyna)
    )


def _grid_flow(params: Mapping, seed: int) -> SyntheticResult:
    rows = int(params.get("rows", 4))
    cols = int(params.get("cols", 4))
    n_slots = int(params.get("n_slots", 192))
    interval = int(params.get("interval_seconds", 1800))
    max_flow = int(params.get("max_flow", 40))
    missing_rate = float(params.get("missing_rate", 0.0))
    name = params.get("name", "syn_grid")
    rng = np.random.default_rng(seed)
    period = int(params.get("period", max(1, 86400 // interval)))
    base = rng.integers(0, max_flow, size=(period, rows, cols)).astype(np.float64)

    records = []
    n = 0
    for t in range(n_slots):
        stamp = _T0 + timedelta(seconds=t * interval)
        for i in range(rows):
            for j in range(cols):
                if missing_rate > 0 and rng.random() < missing_rate:
                    continue
                records.append(
                    GridRecord(
                        f"d{n}",
                        "state",
                        stamp,
                        i,
                        j,
                        {"flow": float(base[t % period, i, j])},
                    )
                )
                n += 1
    manifest = Manifest(
        name=name,
        interval_seconds=interval,
        grid_rows=rows,
        grid_cols=cols,
        features=("flow",),
    )
    return SyntheticResult(AtomicDataset(manifest=manifest, grid=records))


def _node_coords(n: int, block_m: float, lon0: float, lat0: float):
    dlat = block_m / _M_PER_DEG_LAT
    dlon = block_m / (_M_PER_DEG_LAT * math.cos(math.radians(lat0)))
    return {
        (i, j): (lon0 + j * dlon, lat0 + i * dlat)
        for i in range(n)
        for j in range(n)
    }


def _road_network(params: Mapping) -> AtomicDataset:
    """n-by-n street grid: 2*n*(n-1) undirected streets, one segment per direction."""
    n = int(params.get("n", 4))
    block_m = float(params.get("block_m", 500.0))
    lon0 = float(params.get("lon0", 116.0))
    lat0 = float(params.get("lat0", 39.9))
    allow_uturn = bool(params.get("allow_uturn", False))
    name = params.get("name", "syn_roads")
    if n < 2:
        raise ValueError("need at least a 2x2 node grid")
    coords = _node_coords(n, block_m, lon0, lat0)

    def node_name(ij):
        # No underscore inside node names: segment ids split on it.
        return f"n{ij[0]}x{ij[1]}"

    pairs = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                pairs.append(((i, j), (i, j + 1)))
            if i + 1 < n:
                pairs.append(((i, j), (i + 1, j)))
    geo = []
    nodes: dict[str, tuple] = {}  # each segment's start and end node
    leaving: dict[tuple, list[str]] = {}  # each node's segments, in geo order
    for a, b in pairs:
        for u, v in ((a, b), (b, a)):
            gid = f"s_{node_name(u)}_{node_name(v)}"
            geo.append(GeoUnit(gid, "LineString", (coords[u], coords[v]), {}))
            leaving.setdefault(u, []).append(gid)
            nodes[gid] = (u, v)
    rel = []
    for gid, (start_node, end_node) in nodes.items():
        for hid in leaving[end_node]:
            if not allow_uturn and nodes[hid][1] == start_node:
                continue  # hid retraces gid backwards
            rel.append(RelationRecord(f"r{len(rel)}", "geo", gid, hid, {}))
    manifest = Manifest(name=name)
    return AtomicDataset(manifest=manifest, geo=geo, rel=rel)


def _trajectories(params: Mapping, seed: int) -> SyntheticResult:
    n = int(params.get("n", 5))
    block_m = float(params.get("block_m", 500.0))
    n_trajectories = int(params.get("n_trajectories", 5))
    route_segments = int(params.get("route_segments", 10))
    points_per_segment = int(params.get("points_per_segment", 2))
    noise_sigma_m = float(params.get("noise_sigma_m", 0.0))
    step_seconds = int(params.get("step_seconds", 15))
    name = params.get("name", "syn_traj")
    rng = np.random.default_rng(seed)

    network_ds = _road_network(
        {
            "n": n,
            "block_m": block_m,
            "lon0": params.get("lon0", 116.0),
            "lat0": params.get("lat0", 39.9),
            "name": name,
        }
    )
    segments = {g.geo_id: g for g in network_ds.geo}
    out_edges: dict[str, list[str]] = {gid: [] for gid in segments}
    for r in network_ds.rel:
        out_edges[r.origin_id].append(r.des_id)
    seg_ids = sorted(segments)

    lat_mid = segments[seg_ids[0]].coordinates[0][1]
    m_lon = _M_PER_DEG_LAT * math.cos(math.radians(lat_mid))

    def reverse_of(gid: str) -> str:
        head, a, b = gid.rsplit("_", 2)
        return f"{head}_{b}_{a}"

    usr = []
    dyna = []
    truth: dict[str, list[str]] = {}
    row = 0
    for u in range(n_trajectories):
        user = f"u{u}"
        usr.append(UserUnit(user, {}))
        # Self-avoiding walk over directed segments, skipping reversals.
        current = seg_ids[int(rng.integers(len(seg_ids)))]
        route = [current]
        used = {current, reverse_of(current)}
        while len(route) < route_segments:
            options = [s for s in out_edges[current] if s not in used]
            if not options:
                break
            current = options[int(rng.integers(len(options)))]
            route.append(current)
            used.add(current)
            used.add(reverse_of(current))
        truth[user] = route
        stamp = _T0 + timedelta(seconds=int(rng.integers(0, 3600)))
        for gid in route:
            (lon1, lat1), (lon2, lat2) = segments[gid].coordinates
            for p in range(points_per_segment):
                frac = (p + 0.5) / points_per_segment
                lon = lon1 + frac * (lon2 - lon1)
                lat = lat1 + frac * (lat2 - lat1)
                if noise_sigma_m > 0:
                    lon += rng.normal(scale=noise_sigma_m) / m_lon
                    lat += rng.normal(scale=noise_sigma_m) / _M_PER_DEG_LAT
                dyna.append(
                    DynaRecord(
                        f"d{row}",
                        "trajectory",
                        stamp,
                        user,
                        None,
                        {"lon": float(lon), "lat": float(lat)},
                    )
                )
                row += 1
                stamp += timedelta(seconds=step_seconds)
    ds = AtomicDataset(
        manifest=network_ds.manifest,
        geo=network_ds.geo,
        rel=network_ds.rel,
        usr=usr,
        dyna=dyna,
    )
    return SyntheticResult(ds, truth_routes=truth)
