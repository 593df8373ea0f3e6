"""Hidden-Markov-model map matching of GPS points onto a road network.

The model follows the classic noisy-GPS construction: candidate road
segments near each point are HMM states, emission scores fall off with the
Gaussian of the point-to-segment distance, and transition scores fall off
exponentially with the disagreement between on-road travel distance and
great-circle distance between consecutive points. Viterbi decoding picks the
jointly most likely segment sequence; when a point has no candidates, or no
finite route reaches them from the chain, the chain breaks and matching
restarts there.

Distances are meters. Segment lengths use the haversine formula on a sphere
of radius 6371 km; point-to-segment projection uses a local equirectangular
approximation centered at the query point, accurate at street scale.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import (
    BadMatchParams,
    NoCandidatesAnywhere,
    NonLineGeometry,
    UnknownEntity,
)

__all__ = [
    "EARTH_RADIUS_M",
    "haversine_m",
    "Segment",
    "RoadNetwork",
    "build_road_network",
    "MatchParams",
    "Candidate",
    "candidate_segments",
    "emission_logprob",
    "transition_logprob",
    "shortest_route",
    "viterbi_decode",
    "MatchResult",
    "viterbi_match",
]

EARTH_RADIUS_M = 6371000.0
_M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0
_MIN_SCALE_M = 1e-3  # floor of MatchParams.sigma_m and beta_m


def _m_per_deg_lon(lat: float) -> float:
    """Meters per degree of longitude at latitude ``lat`` (equirectangular)."""
    return _M_PER_DEG_LAT * max(math.cos(math.radians(lat)), 1e-12)


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in meters between two lon/lat points."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(
        dlam / 2.0
    ) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


@dataclass
class Segment:
    """One directed road segment: polyline plus precomputed leg lengths."""

    geo_id: str
    coords: tuple[tuple[float, float], ...]
    length_m: float
    cum_m: tuple[float, ...]  # cumulative length at each vertex

    @property
    def start(self) -> tuple[float, float]:
        return self.coords[0]

    @property
    def end(self) -> tuple[float, float]:
        return self.coords[-1]


class _Row(NamedTuple):
    """One origin's settled segments, sorted, each with its distance and the
    segment routed through just before it (-1 for a first hop)."""

    segment: np.ndarray
    dist: np.ndarray
    prev: np.ndarray
    complete: bool


class _RouteTable:
    """Exact on-road routes between segments, filled per origin on demand.

    Distances run from the END of an origin segment to the START of a target:
    a segment's own length is paid on leaving it, and the origin itself is a
    valid target (a route looping back onto it). Segment ids are interned as
    ints in sorted string order, so the Dijkstra heap entries
    ``(cost, segment, parent)``, with parent -1 for a first hop out of the
    origin, tie-break exactly as the string ids would, and the settle order,
    every distance and every predecessor follow from the graph alone.

    Each origin used has a row: the segments its search settled, as arrays
    sorted by segment and ended by a sentinel past every segment. No heap is
    kept. A query for a segment the row lacks reruns the origin's search from
    scratch until every queried segment is settled; the search settles in
    the same order every time, so the new row extends the old one. A row
    whose search ran out of segments is complete, and what it lacks is
    unreachable.
    """

    __slots__ = ("ids", "code", "lengths", "succ", "dtype", "rows", "_unfilled")

    def __init__(
        self, segments: dict[str, Segment], out_edges: dict[str, tuple[str, ...]]
    ):
        self.ids = sorted(segments)
        self.code = {gid: n for n, gid in enumerate(self.ids)}
        self.lengths = [segments[gid].length_m for gid in self.ids]
        self.succ = [
            tuple(self.code[w] for w in out_edges.get(gid, ())) for gid in self.ids
        ]
        # The narrowest int type for the codes, the sentinel and -1.
        self.dtype = np.min_scalar_type(-len(self.ids) - 1)
        self.rows: dict[int, _Row] = {}
        self._unfilled = self._row([], complete=False)

    def _row(self, settled: list[tuple[float, int, int]], complete: bool) -> _Row:
        """The row of the settled ``(dist, segment, prev)`` heap entries."""
        flat = itertools.chain.from_iterable(settled + [(math.inf, len(self.ids), -1)])
        entries = np.fromiter(flat, np.float64).reshape(-1, 3)
        entries = entries[np.argsort(entries[:, 1])]
        return _Row(
            entries[:, 1].astype(self.dtype),
            entries[:, 0].copy(),
            entries[:, 2].astype(self.dtype),
            complete,
        )

    def _settle(self, origin: int, targets: np.ndarray) -> _Row:
        """Dijkstra from the end of ``origin`` until ``targets`` are settled."""
        lengths, succ = self.lengths, self.succ
        done = bytearray(len(self.ids))
        wanted = bytearray(len(self.ids))
        for t in targets.tolist():
            wanted[t] = 1
        pending = wanted.count(1)
        settled = []
        heap = [(0.0, w, -1) for w in succ[origin]]
        heapq.heapify(heap)
        while heap:
            entry = heapq.heappop(heap)
            v = entry[1]
            if done[v]:
                continue
            done[v] = 1
            settled.append(entry)
            if wanted[v]:
                pending -= 1
                if not pending:
                    return self._row(settled, complete=False)
            dv = entry[0] + lengths[v]
            for w in succ[v]:
                if not done[w]:
                    heapq.heappush(heap, (dv, w, v))
        return self._row(settled, complete=True)

    def start_distances(self, origin: int, targets: np.ndarray) -> np.ndarray:
        """Cost from the end of segment ``origin`` to the start of each of the
        segment codes ``targets`` (of ``dtype``); inf when unreachable."""
        row = self.rows.get(origin, self._unfilled)
        pos = row.segment.searchsorted(targets)
        found = row.segment[pos] == targets
        if found.all():
            return row.dist[pos]
        if not row.complete:
            row = self.rows[origin] = self._settle(origin, targets)
            pos = row.segment.searchsorted(targets)
            found = row.segment[pos] == targets
        return np.where(found, row.dist[pos], math.inf)

    def chain(self, origin: int, target: int) -> list[str]:
        """Segment ids from the first hop out of ``origin`` through ``target``,
        which the origin's row must hold."""
        row = self.rows[origin]
        out = [target]
        while (parent := int(row.prev[row.segment.searchsorted(out[-1])])) >= 0:
            out.append(parent)
        return [self.ids[c] for c in reversed(out)]


@dataclass
class RoadNetwork:
    """Directed segment graph, its route table, segment boxes and legs.

    ``routes`` is built from the segments and edges when not given; every
    match on the network reuses the routes the earlier ones settled.
    ``boxes`` holds each segment's (min lon, min lat, max lon, max lat) as
    the four contiguous rows of a [4, n] array, and ``legs`` each polyline
    leg's start lon/lat, end lon/lat, cumulative length at its start and
    length as the rows of a [6, legs] array, segment c's legs from column
    ``first_leg[c]`` to ``first_leg[c + 1]``. Both follow route-table code
    order, so a trajectory's candidate search is a few array passes.
    """

    segments: dict[str, Segment]
    out_edges: dict[str, tuple[str, ...]]
    routes: _RouteTable | None = field(default=None, repr=False, compare=False)
    boxes: np.ndarray = field(init=False, repr=False, compare=False)
    legs: np.ndarray = field(init=False, repr=False, compare=False)
    first_leg: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.routes is None:
            self.routes = _RouteTable(self.segments, self.out_edges)
        segs = [self.segments[g] for g in self.routes.ids]
        boxes = [(min(x), min(y), max(x), max(y)) for x, y in (zip(*s.coords) for s in segs)]
        self.boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4).T.copy()
        legs = [
            (*a, *b, m, n - m)
            for s in segs
            for a, b, m, n in zip(s.coords, s.coords[1:], s.cum_m, s.cum_m[1:])
        ]
        self.legs = np.array(legs, dtype=np.float64).reshape(-1, 6).T.copy()
        self.first_leg = np.cumsum([0] + [len(s.coords) - 1 for s in segs])

    def segment_lengths(self) -> dict[str, float]:
        return {gid: seg.length_m for gid, seg in self.segments.items()}


def build_road_network(geos, rels) -> RoadNetwork:
    """Assemble the directed segment graph from geometry and relation rows.

    Every geo unit must be a LineString (NonLineGeometry otherwise); every
    relation row of type ``geo`` adds one directed connectivity edge whose
    endpoints must name known segments. No spatial index is built: the
    network's segment boxes are all candidate search needs, at any radius.
    """
    segments: dict[str, Segment] = {}
    for g in geos:
        if g.geo_type != "LineString":
            raise NonLineGeometry(
                f"geo unit {g.geo_id!r} is {g.geo_type}, need LineString"
            )
        cum = [0.0]
        for (lon1, lat1), (lon2, lat2) in zip(g.coordinates, g.coordinates[1:]):
            cum.append(cum[-1] + haversine_m(lon1, lat1, lon2, lat2))
        segments[g.geo_id] = Segment(
            g.geo_id, tuple(g.coordinates), cum[-1], tuple(cum)
        )
    adj: dict[str, list[str]] = {gid: [] for gid in segments}
    for r in rels:
        if r.rel_type != "geo":
            continue
        for side in (r.origin_id, r.des_id):
            if side not in segments:
                raise UnknownEntity(f"relation endpoint {side!r} is not a segment")
        adj[r.origin_id].append(r.des_id)
    return RoadNetwork(segments, {gid: tuple(v) for gid, v in adj.items()})


@dataclass(frozen=True)
class MatchParams:
    """Knobs of the matcher.

    ``sigma_m`` is the GPS noise scale of the emission Gaussian, ``beta_m``
    the scale of the route-versus-great-circle transition penalty,
    ``radius_m`` the candidate search radius, ``max_candidates`` the per-point
    candidate cap (nearest first). Both scales are at least ``_MIN_SCALE_M``
    (1 mm), so every emission score and every transition score over a finite
    route is a finite float.
    """

    sigma_m: float = 10.0
    beta_m: float = 5.0
    radius_m: float = 200.0
    max_candidates: int = 10

    def __post_init__(self):
        for name in ("sigma_m", "beta_m", "radius_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise BadMatchParams(
                    f"{name} must be a positive finite number, got {value!r}", name
                )
        for name in ("sigma_m", "beta_m"):
            value = getattr(self, name)
            if value < _MIN_SCALE_M:
                raise BadMatchParams(
                    f"{name} must be at least {_MIN_SCALE_M} m, got {value!r}", name
                )
        if self.max_candidates <= 0:
            raise BadMatchParams(
                f"max_candidates must be positive, got {self.max_candidates!r}",
                "max_candidates",
            )


@dataclass(frozen=True)
class Candidate:
    """A projection of one GPS point onto one segment."""

    segment_id: str
    lon: float
    lat: float
    distance_m: float
    offset_m: float  # along-segment distance from the segment start


class _Candidates(NamedTuple):
    """Candidates as arrays: point i's are rows ``ptr[i]`` to ``ptr[i + 1]``."""

    ptr: np.ndarray
    code: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    distance_m: np.ndarray
    offset_m: np.ndarray

    def pick(self, network: RoadNetwork, rows) -> list[Candidate]:
        """The candidates at ``rows``, as :class:`Candidate` objects."""
        ids = network.routes.ids
        code, *floats = (column[rows].tolist() for column in self[1:])
        return [Candidate(ids[c], *f) for c, *f in zip(code, *floats)]


# Point x segment cells of one box-test block: bounds the test's memory.
_BOX_CELLS = 1 << 18


def _search(
    network: RoadNetwork, lon: np.ndarray, lat: np.ndarray, params: MatchParams
) -> _Candidates:
    """Every point's segments within the search radius, nearest first, capped.

    A point's pool is the segments whose bounding box meets its ±radius box,
    at the projection's meters-per-degree scale; any other segment is
    farther away. Each leg of a pooled segment is projected in a local
    equirectangular frame centered at the point, and a polyline's first
    nearest leg gives its distance and offset. Ties in distance break on
    segment id, so the result is deterministic.
    """
    m_lon = np.array([_m_per_deg_lon(y) for y in lat.tolist()], dtype=np.float64)
    rlon = params.radius_m / m_lon
    rlat = params.radius_m / _M_PER_DEG_LAT
    lo_lon, lo_lat, hi_lon, hi_lat = network.boxes
    block = max(1, _BOX_CELLS // max(len(lo_lon), 1))
    hits = []
    for s in range(0, len(lon), block):
        x, y, r = (v[s : s + block, None] for v in (lon, lat, rlon))
        near = (lo_lon <= x + r) & (hi_lon >= x - r)
        near &= (lo_lat <= y + rlat) & (hi_lat >= y - rlat)
        p, g = np.nonzero(near)
        hits.append((p + s, g))
    point, code = map(np.concatenate, zip(*hits))

    # One row per (point, pooled segment, leg), each pair's legs in order.
    first = network.first_leg[code]
    n_legs = network.first_leg[code + 1] - first
    pair = np.repeat(np.arange(len(code)), n_legs)
    leg = np.arange(len(pair)) + np.repeat(first - n_legs.cumsum() + n_legs, n_legs)
    lon0, lat0, lon1, lat1, cum_m, leg_m = network.legs[:, leg]
    pt = point[pair]
    x1, y1 = (lon0 - lon[pt]) * m_lon[pt], (lat0 - lat[pt]) * _M_PER_DEG_LAT
    dx = (lon1 - lon[pt]) * m_lon[pt] - x1
    dy = (lat1 - lat[pt]) * _M_PER_DEG_LAT - y1
    leg2 = dx * dx + dy * dy
    t = np.divide(-(x1 * dx + y1 * dy), leg2, out=np.zeros_like(leg2), where=leg2 != 0.0)
    t = np.where(t < 1.0, t, 1.0)  # max(0, min(1, t)), picking as min and max do
    t = np.where(t > 0.0, t, 0.0)
    px, py = x1 + t * dx, y1 + t * dy
    # math.hypot, not np.hypot: the two differ in the last bit on some pairs.
    dist = np.fromiter(map(math.hypot, px.tolist(), py.tolist()), np.float64, len(px))

    # Each pair's first nearest leg; those in radius, nearest first, capped.
    order = np.lexsort((dist, pair))
    best = order[np.diff(pair[order], prepend=-1) != 0]
    best = best[dist[best] <= params.radius_m]
    best = best[np.lexsort((code[pair[best]], dist[best], point[pair[best]]))]
    counts = np.bincount(point[pair[best]], minlength=len(lon))
    rank = np.arange(len(best)) - np.repeat(counts.cumsum() - counts, counts)
    best = best[rank < params.max_candidates]
    pt = point[pair[best]]
    return _Candidates(
        np.concatenate([[0], np.minimum(counts, params.max_candidates).cumsum()]),
        code[pair[best]],
        lon[pt] + px[best] / m_lon[pt],
        lat[pt] + py[best] / _M_PER_DEG_LAT,
        dist[best],
        cum_m[best] + t[best] * leg_m[best],
    )


def candidate_segments(
    network: RoadNetwork, lon: float, lat: float, params: MatchParams
) -> list[Candidate]:
    """Segments within the search radius of one point, nearest first, capped;
    ties in distance break on segment id."""
    found = _search(network, np.array([lon], float), np.array([lat], float), params)
    return found.pick(network, slice(None))


def emission_logprob(distance_m, sigma_m: float):
    """Gaussian log-density of a point-to-segment distance or an array of them."""
    return -0.5 * np.square(np.divide(distance_m, sigma_m)) - math.log(
        sigma_m * math.sqrt(2.0 * math.pi)
    )


def transition_logprob(route_m, greatcircle_m, beta_m: float):
    """Exponential log-density of |route - great circle|; unreachable is -inf.

    ``route_m`` and ``greatcircle_m`` are distances or arrays of them.
    """
    return -np.abs(np.subtract(route_m, greatcircle_m)) / beta_m - math.log(beta_m)


def _route_distances(network: RoadNetwork, from_seg, from_off, to_seg, to_off) -> np.ndarray:
    """On-road distance of each (origin, target) pair of candidates, given as
    arrays of segment codes and offsets.

    A route runs to the end of the origin's segment, through the network's
    route table, and along the target segment to its offset; moving forward
    along a shared segment costs the offset difference instead when that is
    shorter. Unreachable is inf. The table is asked once per distinct origin
    segment, for the union of its targets.
    """
    table = network.routes
    n = len(table.ids)
    pairs, inverse = np.unique(from_seg.astype(np.int64) * n + to_seg, return_inverse=True)
    origin, target = np.divmod(pairs, n)
    starts = np.empty(len(pairs))
    cuts = [*np.flatnonzero(np.diff(origin, prepend=-1)).tolist(), len(pairs)]
    for lo, hi in zip(cuts, cuts[1:]):
        starts[lo:hi] = table.start_distances(int(origin[lo]), target[lo:hi].astype(table.dtype))
    leave = np.take(table.lengths, from_seg) - from_off
    out = leave + starts[inverse] + to_off
    forward = (from_seg == to_seg) & (to_off >= from_off)
    along = to_off - from_off
    out[forward] = np.minimum(out[forward], along[forward])
    return out


def _leg(
    network: RoadNetwork, a: Candidate, b: Candidate, d: float
) -> list[str] | None:
    """The segment sequence of the route from a to b, whose distance is ``d``
    as :func:`_route_distances` gave it; None when unreachable."""
    if math.isinf(d):
        return None
    same = a.segment_id == b.segment_id and b.offset_m >= a.offset_m
    if same and d == b.offset_m - a.offset_m:  # ties keep the one-segment route
        return [a.segment_id]
    table = network.routes
    return [
        a.segment_id,
        *table.chain(table.code[a.segment_id], table.code[b.segment_id]),
    ]


def shortest_route(
    network: RoadNetwork, a: Candidate, b: Candidate
) -> tuple[float, list[str] | None]:
    """On-road distance and segment sequence from candidate a to candidate b.

    Moving forward along a shared segment costs the offset difference;
    otherwise the route runs to the end of a's segment, through intermediate
    segments, and along b's segment to its offset. Returns (inf, None) when
    b is unreachable. Routes come from the network's shared route table.
    """
    code = network.routes.code
    seg = np.array([code[a.segment_id], code[b.segment_id]])
    off = np.array([a.offset_m, b.offset_m])
    d = float(_route_distances(network, seg[:1], off[:1], seg[1:], off[1:])[0])
    return d, _leg(network, a, b, d)


def viterbi_decode(
    emissions: list[np.ndarray], transitions: list[np.ndarray]
) -> tuple[float, list[int]]:
    """Max-sum decoding over a chain of candidate sets.

    ``emissions[i]`` scores the candidates of step i; ``transitions[i]`` is
    the [n_i, n_{i+1}] matrix of step-to-step scores. Returns the best total
    score and one argmax candidate index per step. Adding a constant to all
    of a step's emission or transition scores shifts the score but never
    changes the argmax path.
    """
    dp = np.asarray(emissions[0], dtype=np.float64).copy()
    back: list[np.ndarray] = []
    for e, tr in zip(emissions[1:], transitions):
        scores = dp[:, None] + np.asarray(tr, dtype=np.float64)
        best_prev = np.argmax(scores, axis=0)
        dp = scores[best_prev, np.arange(scores.shape[1])] + np.asarray(e)
        back.append(best_prev)
    path = [int(np.argmax(dp))]
    for bp in reversed(back):
        path.append(int(bp[path[-1]]))
    path.reverse()
    return float(np.max(dp)), path


@dataclass
class MatchResult:
    """Everything the matcher decided for one trajectory.

    ``matched[i]`` is the chosen candidate for point i (None when the point
    had no candidate in radius). ``chains`` lists half-open [start, stop)
    point index ranges decoded jointly. ``routes`` holds one stitched
    segment-id sequence per chain; ``point_logprob[i]`` is point i's
    contribution to its chain score (emission plus incoming transition).
    """

    matched: list[Candidate | None]
    chains: list[tuple[int, int]]
    routes: list[list[str]]
    point_logprob: list[float | None]

    @property
    def breaks(self) -> list[int]:
        """The chain starts after the first, where continuity was lost."""
        return [start for start, _ in self.chains[1:]]

    def route(self) -> list[str]:
        """All chain routes concatenated, consecutive duplicates removed."""
        out: list[str] = []
        for chain_route in self.routes:
            for gid in chain_route:
                if not out or out[-1] != gid:
                    out.append(gid)
        return out


def viterbi_match(network: RoadNetwork, points, params: MatchParams) -> MatchResult:
    """Match one trajectory, an [n, 2] array or list of (lon, lat), to the network.

    Every point's candidates are found in one search, and every pair of
    consecutive points' candidates is routed in one call. Chains are then
    built in order. The first point of a chain reaches all its candidates, a
    later point those that a finite route joins to a reached candidate of
    the point before; a point that reaches none, or has none, closes the
    chain, which :func:`viterbi_decode` decodes. Routes come from the
    network's route table, which outlives the call. Raises
    NoCandidatesAnywhere when not a single point has a candidate.
    """
    points = np.asarray(points, dtype=np.float64)
    if not len(points):
        raise ValueError("trajectory has no points")
    if points.shape != (len(points), 2):
        raise ValueError(f"points must be (lon, lat) pairs, got shape {points.shape}")
    lon, lat = points.T
    cands = _search(network, lon, lat, params)
    if not len(cands.code):
        raise NoCandidatesAnywhere(
            f"no candidates within {params.radius_m} m of any of the "
            f"{len(points)} points"
        )
    emissions = emission_logprob(cands.distance_m, params.sigma_m)

    # The (previous candidate, candidate) pairs of every step between two
    # points, step by step, previous-major: step i - 1 -> i holds pairs
    # bounds[i - 1] to bounds[i].
    ptr, count = cands.ptr, np.diff(cands.ptr)
    size = count[:-1] * count[1:]
    bounds = np.concatenate([[0], size.cumsum()])
    pair_step = np.repeat(np.arange(len(size)), size)
    k = np.arange(bounds[-1]) - bounds[pair_step]
    src = ptr[pair_step] + k // count[pair_step + 1]
    dst = ptr[pair_step + 1] + k % count[pair_step + 1]
    route_m = _route_distances(
        network, cands.code[src], cands.offset_m[src], cands.code[dst], cands.offset_m[dst]
    )
    coords = points.tolist()
    greatcircle = [haversine_m(*a, *b) for a, b in zip(coords, coords[1:])]
    transitions = transition_logprob(route_m, np.take(greatcircle, pair_step), params.beta_m)

    def at_step(pairs: np.ndarray, i: int) -> np.ndarray:
        """Step i - 1 -> i of a per-pair array, as a matrix view."""
        return pairs[bounds[i - 1] : bounds[i]].reshape(count[i - 1], count[i])

    matched: list[Candidate | None] = [None] * len(points)
    point_logprob: list[float | None] = [None] * len(points)
    chains: list[tuple[int, int]] = []
    routes: list[list[str]] = []

    def close_chain(start, stop):
        emit = [emissions[ptr[i] : ptr[i + 1]] for i in range(start, stop)]
        trans = [at_step(transitions, i) for i in range(start + 1, stop)]
        _, idx = viterbi_decode(emit, trans)
        chosen = cands.pick(network, ptr[start:stop] + idx)
        matched[start:stop] = chosen
        # Per-point score contributions along the chosen path.
        point_logprob[start] = float(emit[0][idx[0]])
        route = [chosen[0].segment_id]
        for n in range(1, len(idx)):
            point_logprob[start + n] = float(emit[n][idx[n]] + trans[n - 1][idx[n - 1], idx[n]])
            d = float(at_step(route_m, start + n)[idx[n - 1], idx[n]])
            for gid in _leg(network, chosen[n - 1], chosen[n], d) or ():
                if route[-1] != gid:
                    route.append(gid)
        chains.append((start, stop))
        routes.append(route)

    # The running chain's first point, and which candidates of its last
    # point are reached.
    start = None
    for i in range(len(points)):
        if not count[i]:
            if start is not None:
                close_chain(start, i)
                start = None
            continue
        if start is not None:
            # Routes from the previous point's reached candidates only; the
            # others stay unreachable. The views write through, so the
            # decode reads the masked rows.
            d, tr = at_step(route_m, i), at_step(transitions, i)
            d[~reached] = np.inf
            tr[~reached] = -np.inf
            reached = np.isfinite(d).any(axis=0)
            if reached.any():
                continue
            close_chain(start, i)
        start, reached = i, np.ones(count[i], dtype=bool)
    if start is not None:
        close_chain(start, len(points))
    return MatchResult(matched, chains, routes, point_logprob)
