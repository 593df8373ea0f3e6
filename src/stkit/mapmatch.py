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
        entries = np.array(settled + [(math.inf, len(self.ids), -1)], dtype=np.float64)
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
        pending = sum(wanted)
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
    """Directed segment graph, its route table and segment bounding boxes.

    ``routes`` is built from the segments and edges when not given; every
    match on the network reuses the routes the earlier ones settled.
    ``boxes`` holds each segment's (min lon, min lat, max lon, max lat) as
    the four contiguous rows of a [4, n] array in route-table code order, so
    candidate search is one vectorized box test per point.
    """

    segments: dict[str, Segment]
    out_edges: dict[str, tuple[str, ...]]
    routes: _RouteTable | None = field(default=None, repr=False, compare=False)
    boxes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.routes is None:
            self.routes = _RouteTable(self.segments, self.out_edges)
        coords = (zip(*self.segments[g].coords) for g in self.routes.ids)
        boxes = [(min(x), min(y), max(x), max(y)) for x, y in coords]
        self.boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4).T.copy()

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


def _project_to_segment(
    seg: Segment, lon: float, lat: float
) -> tuple[float, float, float, float]:
    """Nearest point on the polyline: (proj_lon, proj_lat, distance_m, offset_m)."""
    m_lat = _M_PER_DEG_LAT
    m_lon = _m_per_deg_lon(lat)
    pts = [((c[0] - lon) * m_lon, (c[1] - lat) * m_lat) for c in seg.coords]
    best = (math.inf, 0.0, 0.0, 0.0)  # dist, x, y, offset
    for i in range(len(pts) - 1):
        (x1, y1), (x2, y2) = pts[i], pts[i + 1]
        dx, dy = x2 - x1, y2 - y1
        leg2 = dx * dx + dy * dy
        if leg2 == 0.0:
            t = 0.0
        else:
            t = max(0.0, min(1.0, -(x1 * dx + y1 * dy) / leg2))
        px, py = x1 + t * dx, y1 + t * dy
        d = math.hypot(px, py)
        if d < best[0]:
            leg_m = seg.cum_m[i + 1] - seg.cum_m[i]
            best = (d, px, py, seg.cum_m[i] + t * leg_m)
    d, px, py, offset = best
    return lon + px / m_lon, lat + py / m_lat, d, offset


def candidate_segments(
    network: RoadNetwork, lon: float, lat: float, params: MatchParams
) -> list[Candidate]:
    """Segments within the search radius, nearest first, capped.

    The pool is the segments whose bounding box meets the point's ±radius
    box, at the projection's meters-per-degree scale; any other segment is
    farther away. Each is projected exactly; ties in distance break on
    segment id so the result is deterministic.
    """
    rlon = params.radius_m / _m_per_deg_lon(lat)
    rlat = params.radius_m / _M_PER_DEG_LAT
    lo_lon, lo_lat, hi_lon, hi_lat = network.boxes
    near = (lo_lon <= lon + rlon) & (hi_lon >= lon - rlon)
    near &= (lo_lat <= lat + rlat) & (hi_lat >= lat - rlat)
    out = []
    for gid in [network.routes.ids[n] for n in np.flatnonzero(near).tolist()]:
        plon, plat, d, offset = _project_to_segment(network.segments[gid], lon, lat)
        if d <= params.radius_m:
            out.append(Candidate(gid, plon, plat, d, offset))
    out.sort(key=lambda c: (c.distance_m, c.segment_id))
    return out[: params.max_candidates]


def emission_logprob(distance_m: float, sigma_m: float) -> float:
    """Gaussian log-density of the point-to-segment distance."""
    return -0.5 * (distance_m / sigma_m) ** 2 - math.log(
        sigma_m * math.sqrt(2.0 * math.pi)
    )


def transition_logprob(route_m, greatcircle_m: float, beta_m: float):
    """Exponential log-density of |route - great circle|; unreachable is -inf.

    ``route_m`` is a distance or an array of them.
    """
    return -np.abs(np.subtract(route_m, greatcircle_m)) / beta_m - math.log(beta_m)


def _route_distances(
    network: RoadNetwork, origins: list[Candidate], targets: list[Candidate]
) -> np.ndarray:
    """On-road distance from each origin candidate to each target candidate.

    Row k of the [len(origins), len(targets)] result is origin k's. A route
    runs to the end of the origin's segment, through the network's route
    table, and along the target segment to its offset; moving forward along
    a shared segment costs the offset difference instead when that is
    shorter. Unreachable is inf.
    """
    table = network.routes
    code, lengths = table.code, table.lengths
    to_seg = np.array([code[b.segment_id] for b in targets], dtype=table.dtype)
    to_off = np.array([b.offset_m for b in targets], dtype=np.float64)
    from_seg = [code[a.segment_id] for a in origins]
    from_off = np.array([a.offset_m for a in origins], dtype=np.float64)
    starts = np.empty((len(origins), len(targets)))
    for k, origin in enumerate(from_seg):
        starts[k] = table.start_distances(origin, to_seg)
    leave = np.array([lengths[o] for o in from_seg], dtype=np.float64) - from_off
    out = leave[:, None] + starts + to_off
    forward = (np.array(from_seg)[:, None] == to_seg) & (to_off >= from_off[:, None])
    if forward.any():
        along = to_off - from_off[:, None]
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
    d = float(_route_distances(network, [a], [b])[0, 0])
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


def _extract_points(trajectory) -> list[tuple[float, float]]:
    if isinstance(trajectory, (list, tuple)):
        return [(float(lon), float(lat)) for lon, lat in trajectory]
    pts = []
    for p in trajectory.points:
        lon = p.properties.get("lon")
        lat = p.properties.get("lat")
        if lon is None or lat is None:
            raise ValueError(
                "trajectory points need 'lon'/'lat' properties for matching"
            )
        pts.append((float(lon), float(lat)))
    return pts


def viterbi_match(network: RoadNetwork, trajectory, params: MatchParams) -> MatchResult:
    """Match one trajectory (Trajectory or [(lon, lat), ...]) to the network.

    Chains are built online. The first point of a chain reaches all its
    candidates, a later point those that a finite route joins to a reached
    candidate of the point before; a point that reaches none, or has none,
    closes the chain, which :func:`viterbi_decode` decodes. Routes come from
    the network's route table, which outlives the call. Raises
    NoCandidatesAnywhere when not a single point has a candidate.
    """
    points = _extract_points(trajectory)
    if not points:
        raise ValueError("trajectory has no points")
    cands = [candidate_segments(network, lon, lat, params) for lon, lat in points]
    if not any(cands):
        raise NoCandidatesAnywhere(
            f"no candidates within {params.radius_m} m of any of the "
            f"{len(points)} points"
        )

    matched: list[Candidate | None] = [None] * len(points)
    point_logprob: list[float | None] = [None] * len(points)
    chains: list[tuple[int, int]] = []
    routes: list[list[str]] = []

    def close_chain(start, emissions, transitions, route_m):
        _, idx = viterbi_decode(emissions, transitions)
        chosen = [cands[start + n][j] for n, j in enumerate(idx)]
        matched[start : start + len(idx)] = chosen
        # Per-point score contributions along the chosen path.
        point_logprob[start] = float(emissions[0][idx[0]])
        route = [chosen[0].segment_id]
        for n in range(1, len(idx)):
            point_logprob[start + n] = float(
                emissions[n][idx[n]] + transitions[n - 1][idx[n - 1], idx[n]]
            )
            d = float(route_m[n - 1][idx[n - 1], idx[n]])
            for gid in _leg(network, chosen[n - 1], chosen[n], d) or ():
                if route[-1] != gid:
                    route.append(gid)
        chains.append((start, start + len(idx)))
        routes.append(route)

    # The running chain: its first point, per-step emission vectors,
    # transition matrices and the route distances they score; and which
    # candidates of the chain's last point are reached.
    start = None
    emissions: list[np.ndarray] = []
    transitions: list[np.ndarray] = []
    route_m: list[np.ndarray] = []
    reached = np.ones(0, dtype=bool)
    for i, point_cands in enumerate(cands):
        if not point_cands:
            if start is not None:
                close_chain(start, emissions, transitions, route_m)
                start = None
            continue
        e = np.array(
            [emission_logprob(c.distance_m, params.sigma_m) for c in point_cands]
        )
        if start is not None:
            # Routes from the previous point's reached candidates only; the
            # others stay unreachable.
            live = np.flatnonzero(reached)
            d = np.full((len(cands[i - 1]), len(point_cands)), np.inf)
            origins = [cands[i - 1][k] for k in live]
            d[live] = _route_distances(network, origins, point_cands)
            reached = np.isfinite(d).any(axis=0)
            if reached.any():
                gc = haversine_m(*points[i - 1], *points[i])
                emissions.append(e)
                transitions.append(transition_logprob(d, gc, params.beta_m))
                route_m.append(d)
                continue
            close_chain(start, emissions, transitions, route_m)
        start, emissions, transitions, route_m = i, [e], [], []
        reached = np.ones(len(point_cands), dtype=bool)
    if start is not None:
        close_chain(start, emissions, transitions, route_m)
    return MatchResult(matched, chains, routes, point_logprob)
