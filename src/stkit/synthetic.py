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

Everything is deterministic in (kind, params, seed). Each table is built as
columns (see :class:`~stkit.atomic.Column`), with no per-row record object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .atomic import Column, Table, _constant, _ids
from .config import write_json
from .dataset import AtomicDataset, Manifest, save_dataset
from .mapmatch import _M_PER_DEG_LAT, _m_per_deg_lon

__all__ = ["SyntheticResult", "generate_synthetic", "save_synthetic", "TRUTH_ROUTES_FILE"]

TRUTH_ROUTES_FILE = "truth_routes.json"

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
        return SyntheticResult(_road_network(params)[0])
    if kind == "trajectories":
        return _trajectories(params, seed)
    raise ValueError(f"unknown synthetic kind {kind!r}")


def _state_rows(rng, values: np.ndarray, missing_rate: float, interval: int):
    """The state rows of ``values`` [n_slots, cells]: their dyna_id, dyna_type
    and time columns, cell, and flow property. A cell is dropped when its
    draw falls below ``missing_rate``, one draw per cell in row-major order.
    Flows share a code when their bits are equal, so -0.0 is not 0.0."""
    kept = np.arange(values.size)
    if missing_rate > 0:
        kept = np.flatnonzero(~(rng.random(values.size) < missing_rate))
    slot, cell = np.divmod(kept, values.shape[1])  # kept is empty if there are no cells
    bits, codes = np.unique(values.reshape(-1)[kept].view(np.int64), return_inverse=True)
    stamps = [_T0 + timedelta(seconds=t * interval) for t in range(len(values))]
    columns = dict(dyna_id=_ids("d", len(kept)), dyna_type=_constant("state", len(kept)),
                   time=Column(slot, stamps))
    return columns, cell, {"flow": Column(codes.reshape(-1), bits.view(np.float64).tolist())}


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

    ids = _ids("g", n_nodes)
    points = [((116.0 + 0.01 * i, 39.9),) for i in range(n_nodes)]
    geo = Table("geo", dict(geo_id=ids, geo_type=_constant("Point", n_nodes), coordinates=points))
    # Relation 2i runs from node i to the next one around the ring, 2i + 1 back.
    ring = np.arange(n_nodes)
    ends = np.stack([ring, (ring + 1) % n_nodes], axis=1)
    rel = Table("rel", dict(rel_id=_ids("r", 2 * n_nodes), rel_type=_constant("geo", 2 * n_nodes),
                            origin_id=Column(ends.reshape(-1), ids),
                            des_id=Column(ends[:, ::-1].reshape(-1), ids)))
    state, node, flow = _state_rows(rng, values, missing_rate, interval)
    dyna = Table("dyna", dict(**state, entity_id=Column(node, ids),
                              location=_constant(None, len(node))), flow)
    manifest = Manifest(name=name, interval_seconds=interval, features=("flow",))
    return SyntheticResult(AtomicDataset(manifest=manifest, geo=geo, rel=rel, dyna=dyna))


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

    values = base[np.arange(n_slots) % period].reshape(n_slots, rows * cols)
    state, cell, flow = _state_rows(rng, values, missing_rate, interval)
    row, col = np.divmod(cell, cols)
    grid = Table("grid", dict(**state, row_id=Column(row, list(range(rows))),
                              col_id=Column(col, list(range(cols)))), flow)
    manifest = Manifest(name=name, interval_seconds=interval, grid_rows=rows, grid_cols=cols,
                        features=("flow",))
    return SyntheticResult(AtomicDataset(manifest=manifest, grid=grid))


def _road_network(params: Mapping):
    """n-by-n street grid: 2*n*(n-1) undirected streets, one segment per direction.

    Returns the dataset; the segment ids in geo order, segment ``s ^ 1`` being
    segment ``s`` reversed; per segment its start and end lon and lat [S, 4];
    and the successors of segment ``s`` in relation order, which are
    ``succ[succ_ptr[s] : succ_ptr[s + 1]]``, as ``succ_ptr`` and ``succ``.
    """
    n = int(params.get("n", 4))
    block_m = float(params.get("block_m", 500.0))
    lon0 = float(params.get("lon0", 116.0))
    lat0 = float(params.get("lat0", 39.9))
    allow_uturn = bool(params.get("allow_uturn", False))
    name = params.get("name", "syn_roads")
    if n < 2:
        raise ValueError("need at least a 2x2 node grid")
    dlat = block_m / _M_PER_DEG_LAT
    dlon = block_m / _m_per_deg_lon(lat0)
    # Node k is grid node (k // n, k % n). No underscore inside node names:
    # segment ids split on it.
    names = [f"n{i}x{j}" for i in range(n) for j in range(n)]
    lon = np.tile(lon0 + np.arange(n) * dlon, n).tolist()
    lat = np.repeat(lat0 + np.arange(n) * dlat, n).tolist()
    # From each node its street east, then its street south, if inside the
    # grid; each street is the segment there and the segment back.
    node = np.repeat(np.arange(n * n), 2)
    step = np.tile([1, n], n * n)
    inside = np.where(step == 1, node % n + 1 < n, node // n + 1 < n)
    a, b = node[inside], (node + step)[inside]
    start, end = np.stack([a, b], axis=1).reshape(-1), np.stack([b, a], axis=1).reshape(-1)
    pairs = list(zip(start.tolist(), end.tolist()))
    ids = [f"s_{names[u]}_{names[v]}" for u, v in pairs]
    coordinates = [((lon[u], lat[u]), (lon[v], lat[v])) for u, v in pairs]
    # A segment is followed by each segment leaving its end node, in geo
    # order, but the one retracing it unless U-turns are allowed.
    leaving = np.argsort(start, kind="stable")
    ptr = np.concatenate([[0], np.bincount(start, minlength=n * n).cumsum()])
    count = ptr[end + 1] - ptr[end]
    origin = np.repeat(np.arange(len(ids)), count)
    des = leaving[np.arange(count.sum()) + np.repeat(ptr[end] - count.cumsum() + count, count)]
    if not allow_uturn:
        keep = end[des] != start[origin]
        origin, des = origin[keep], des[keep]
    geo = Table("geo", dict(geo_id=ids, geo_type=_constant("LineString", len(ids)),
                            coordinates=coordinates))
    rel = Table("rel", dict(rel_id=_ids("r", len(des)), rel_type=_constant("geo", len(des)),
                            origin_id=Column(origin, ids), des_id=Column(des, ids)))
    succ_ptr = np.concatenate([[0], np.bincount(origin, minlength=len(ids)).cumsum()])
    ends = np.array(coordinates, dtype=np.float64).reshape(-1, 4)
    dataset = AtomicDataset(manifest=Manifest(name=name), geo=geo, rel=rel)
    return dataset, ids, ends, succ_ptr.tolist(), des.tolist()


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

    network, ids, ends, succ_ptr, succ = _road_network(
        {"n": n, "block_m": block_m, "lon0": params.get("lon0", 116.0),
         "lat0": params.get("lat0", 39.9), "name": name}
    )
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    m_lon = _m_per_deg_lon(ends[by_id[0], 1])

    # Per point its segment, user and step from the user's first point; per
    # user the first point's second and the points' noise.
    users, truth = _ids("u", n_trajectories), {}
    seg, user, steps, firsts, noise = [], [], [], [], [np.zeros((0, 2))]
    for u in range(n_trajectories):
        # Self-avoiding walk over directed segments, skipping reversals.
        current = by_id[int(rng.integers(len(by_id)))]
        route = [current]
        used = {current, current ^ 1}
        while len(route) < route_segments:
            options = [s for s in succ[succ_ptr[current] : succ_ptr[current + 1]] if s not in used]
            if not options:
                break
            current = options[int(rng.integers(len(options)))]
            route.append(current)
            used.update((current, current ^ 1))
        truth[users[u]] = [ids[s] for s in route]
        k = len(route) * points_per_segment
        seg += [s for s in route for _ in range(points_per_segment)]
        user += [u] * k
        steps += range(k)
        firsts.append(int(rng.integers(0, 3600)))
        if noise_sigma_m > 0:  # lon then lat, point by point
            noise.append(rng.normal(scale=noise_sigma_m, size=(k, 2)))
    lon1, lat1, lon2, lat2 = ends[np.array(seg, dtype=np.intp)].T
    steps = np.array(steps, dtype=np.int64)
    frac = (steps % points_per_segment + 0.5) / points_per_segment
    lon, lat = lon1 + frac * (lon2 - lon1), lat1 + frac * (lat2 - lat1)
    if noise_sigma_m > 0:
        noise = np.concatenate(noise)
        lon += noise[:, 0] / m_lon
        lat += noise[:, 1] / _M_PER_DEG_LAT
    user = np.array(user, dtype=np.intp)
    seconds = np.array(firsts, dtype=np.int64)[user] + step_seconds * steps
    distinct, time_codes = np.unique(seconds, return_inverse=True)
    stamps = [_T0 + timedelta(seconds=s) for s in distinct.tolist()]
    dyna = Table("dyna", dict(
        dyna_id=_ids("d", len(user)), dyna_type=_constant("trajectory", len(user)),
        time=Column(time_codes.reshape(-1), stamps), entity_id=Column(user, users),
        location=_constant(None, len(user))), {"lon": lon.tolist(), "lat": lat.tolist()})
    ds = replace(network, usr=Table("usr", {"usr_id": users}), dyna=dyna)
    return SyntheticResult(ds, truth_routes=truth)
