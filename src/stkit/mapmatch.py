"""Hidden-Markov-model map matching of GPS points onto a road network.

The model follows the classic noisy-GPS construction: candidate road
segments near each point are HMM states, emission scores fall off with the
Gaussian of the point-to-segment distance, and transition scores fall off
exponentially with the disagreement between on-road travel distance and
great-circle distance between consecutive points. Viterbi decoding picks the
jointly most likely segment sequence; when a point has no candidates, or no
finite-probability transition reaches it, the chain breaks and matching
restarts there.

Distances are meters. Segment lengths use the haversine formula on a sphere
of radius 6371 km; point-to-segment projection uses a local equirectangular
approximation centered at the query point, accurate at street scale.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

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


class _GridIndex:
    """Uniform lon/lat bucket grid over segment bounding boxes.

    A segment is registered in every cell its bounding box touches, so a
    query for all segments within ``radius`` of a point returns a superset
    of the true set: anything the buckets miss is provably farther away.
    """

    def __init__(self, cell_m: float, lon0: float, lat0: float, mid_lat: float):
        self.dlat = cell_m / _M_PER_DEG_LAT
        self.dlon = cell_m / (_M_PER_DEG_LAT * max(math.cos(math.radians(mid_lat)), 1e-12))
        self.lon0 = lon0
        self.lat0 = lat0
        self.buckets: dict[tuple[int, int], list[str]] = {}
        self.ix_range: tuple[int, int] | None = None
        self.iy_range: tuple[int, int] | None = None

    def _cell(self, lon: float, lat: float) -> tuple[int, int]:
        return (
            int(math.floor((lon - self.lon0) / self.dlon)),
            int(math.floor((lat - self.lat0) / self.dlat)),
        )

    def insert(self, seg: Segment):
        lons = [c[0] for c in seg.coords]
        lats = [c[1] for c in seg.coords]
        ix0, iy0 = self._cell(min(lons), min(lats))
        ix1, iy1 = self._cell(max(lons), max(lats))
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                self.buckets.setdefault((ix, iy), []).append(seg.geo_id)
        if self.ix_range is None:
            self.ix_range, self.iy_range = (ix0, ix1), (iy0, iy1)
        else:
            self.ix_range = (min(self.ix_range[0], ix0), max(self.ix_range[1], ix1))
            self.iy_range = (min(self.iy_range[0], iy0), max(self.iy_range[1], iy1))

    def query(self, lon: float, lat: float, radius_m: float) -> list[str]:
        if self.ix_range is None:
            return []
        rlon = radius_m / (_M_PER_DEG_LAT * max(math.cos(math.radians(lat)), 1e-12))
        rlat = radius_m / _M_PER_DEG_LAT
        ix0, iy0 = self._cell(lon - rlon, lat - rlat)
        ix1, iy1 = self._cell(lon + rlon, lat + rlat)
        ix0 = max(ix0, self.ix_range[0])
        ix1 = min(ix1, self.ix_range[1])
        iy0 = max(iy0, self.iy_range[0])
        iy1 = min(iy1, self.iy_range[1])
        seen: dict[str, None] = {}
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                for gid in self.buckets.get((ix, iy), ()):
                    seen.setdefault(gid)
        return list(seen)


@dataclass
class RoadNetwork:
    """Directed segment graph with a spatial index over the polylines."""

    segments: dict[str, Segment]
    out_edges: dict[str, tuple[str, ...]]
    index: _GridIndex | None = None

    def segment_lengths(self) -> dict[str, float]:
        return {gid: seg.length_m for gid, seg in self.segments.items()}


def build_road_network(geos, rels, index_cell_m: float = 200.0) -> RoadNetwork:
    """Assemble the directed segment graph from geometry and relation rows.

    Every geo unit must be a LineString (NonLineGeometry otherwise); every
    relation row of type ``geo`` adds one directed connectivity edge whose
    endpoints must name known segments.
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

    index = None
    if segments:
        all_lons = [c[0] for s in segments.values() for c in s.coords]
        all_lats = [c[1] for s in segments.values() for c in s.coords]
        index = _GridIndex(
            index_cell_m,
            min(all_lons),
            min(all_lats),
            (min(all_lats) + max(all_lats)) / 2.0,
        )
        for seg in segments.values():
            index.insert(seg)
    return RoadNetwork(
        segments=segments,
        out_edges={gid: tuple(v) for gid, v in adj.items()},
        index=index,
    )


@dataclass(frozen=True)
class MatchParams:
    """Knobs of the matcher.

    ``sigma_m`` is the GPS noise scale of the emission Gaussian, ``beta_m``
    the scale of the route-versus-great-circle transition penalty,
    ``radius_m`` the candidate search radius, ``max_candidates`` the per-point
    candidate cap (nearest first).
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
    m_lon = _M_PER_DEG_LAT * max(math.cos(math.radians(lat)), 1e-12)
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

    Uses the bucket index to prune, then projects exactly; ties in distance
    break on segment id so the result is deterministic.
    """
    if network.index is not None:
        pool = network.index.query(lon, lat, params.radius_m)
    else:
        pool = list(network.segments)
    out = []
    for gid in pool:
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


def transition_logprob(route_m: float, greatcircle_m: float, beta_m: float) -> float:
    """Exponential log-density of |route - great circle|; unreachable is -inf."""
    if math.isinf(route_m):
        return -math.inf
    return -abs(route_m - greatcircle_m) / beta_m - math.log(beta_m)


class _RouteTree:
    """Dijkstra from the END of one origin segment, extended on demand.

    ``dist[v]`` is the settled cost from the origin segment's end to the start
    of segment v: a segment's own length is paid on leaving it. ``prev[v]`` is
    the segment routed through just before v, "" for a first hop out of the
    origin: never a parsed id, it sorts before every id, so the heap entries
    that a zero-length segment makes tie on (cost, segment) still compare.
    The origin segment itself is a valid target (a route looping back onto
    it). The heap stays live, so a later request resumes the search where the
    last one stopped; the settle order, and with it every distance and
    predecessor, does not depend on the order of requests.
    """

    __slots__ = ("network", "dist", "prev", "heap")

    def __init__(self, network: RoadNetwork, origin_segment: str):
        self.network = network
        self.dist: dict[str, float] = {}
        self.prev: dict[str, str] = {}
        self.heap: list[tuple[float, str, str]] = [
            (0.0, succ, "") for succ in network.out_edges.get(origin_segment, ())
        ]
        heapq.heapify(self.heap)

    def distance(self, target: str) -> float:
        """Settled cost to the start of ``target``; inf when unreachable."""
        dist = self.dist
        if target in dist:
            return dist[target]
        heap, prev = self.heap, self.prev
        segments, out_edges = self.network.segments, self.network.out_edges
        while heap:
            d, v, parent = heapq.heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            prev[v] = parent
            dv = d + segments[v].length_m
            for w in out_edges.get(v, ()):
                if w not in dist:
                    heapq.heappush(heap, (dv, w, v))
            if v == target:
                return d
        return math.inf

    def chain(self, target: str) -> list[str]:
        """Settled segments from the first hop through ``target``."""
        out = [target]
        while self.prev[out[-1]]:
            out.append(self.prev[out[-1]])
        out.reverse()
        return out


def _route_distances(
    network: RoadNetwork,
    trees: dict[str, _RouteTree],
    origin: Candidate,
    targets: list[Candidate],
) -> list[float]:
    """On-road distance from candidate ``origin`` to each target candidate.

    The route runs to the end of the origin's segment, through the origin
    segment's tree in ``trees`` (created on first use), and along the target
    segment to its offset; moving forward along a shared segment costs the
    offset difference instead when that is shorter. Unreachable is inf.
    """
    tree = trees.get(origin.segment_id)
    if tree is None:
        tree = trees[origin.segment_id] = _RouteTree(network, origin.segment_id)
    leave = network.segments[origin.segment_id].length_m - origin.offset_m
    out = []
    for b in targets:
        d = leave + tree.distance(b.segment_id) + b.offset_m
        if b.segment_id == origin.segment_id and b.offset_m >= origin.offset_m:
            d = min(d, b.offset_m - origin.offset_m)
        out.append(d)
    return out


def _route(
    network: RoadNetwork, trees: dict[str, _RouteTree], a: Candidate, b: Candidate
) -> tuple[float, list[str] | None]:
    """Distance and segment sequence from a to b, read from a's tree."""
    (d,) = _route_distances(network, trees, a, [b])
    if math.isinf(d):
        return d, None
    same = a.segment_id == b.segment_id and b.offset_m >= a.offset_m
    if same and d == b.offset_m - a.offset_m:  # ties keep the one-segment route
        return d, [a.segment_id]
    return d, [a.segment_id, *trees[a.segment_id].chain(b.segment_id)]


def shortest_route(
    network: RoadNetwork, a: Candidate, b: Candidate
) -> tuple[float, list[str] | None]:
    """On-road distance and segment sequence from candidate a to candidate b.

    Moving forward along a shared segment costs the offset difference;
    otherwise the route runs to the end of a's segment, through intermediate
    segments, and along b's segment to its offset. Returns (inf, None) when
    b is unreachable.
    """
    return _route(network, {}, a, b)


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
    point index ranges decoded jointly; ``breaks`` are the chain starts after
    the first, where continuity was lost. ``routes`` holds one stitched
    segment-id sequence per chain; ``point_logprob[i]`` is point i's
    contribution to its chain score (emission plus incoming transition).
    """

    matched: list[Candidate | None]
    chains: list[tuple[int, int]]
    routes: list[list[str]]
    point_logprob: list[float | None]
    breaks: list[int] = field(default_factory=list)

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

    Chains are built online: per point, candidate scores extend the running
    chain unless nothing reaches them, in which case the chain is decoded
    with :func:`viterbi_decode` and a new one starts at that point. Routing
    keeps one resumable Dijkstra tree per origin segment for the length of
    the call, shared by transition scoring and route recovery. Raises
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
    trees: dict[str, _RouteTree] = {}

    def close_chain(start, emissions, transitions):
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
            _, leg = _route(network, trees, chosen[n - 1], chosen[n])
            for gid in leg or ():
                if route[-1] != gid:
                    route.append(gid)
        chains.append((start, start + len(idx)))
        routes.append(route)

    # The running chain: its first point, per-step emission vectors and
    # transition matrices, and the forward scores that detect a break.
    start = None
    emissions: list[np.ndarray] = []
    transitions: list[np.ndarray] = []
    dp: np.ndarray | None = None
    for i, point_cands in enumerate(cands):
        if not point_cands:
            if start is not None:
                close_chain(start, emissions, transitions)
                start = None
            continue
        e = np.array(
            [emission_logprob(c.distance_m, params.sigma_m) for c in point_cands]
        )
        if start is None:
            start, emissions, transitions, dp = i, [e], [], e
            continue
        # Transition matrix from the previous point's candidates.
        gc = haversine_m(*points[i - 1], *points[i])
        tr = np.full((len(cands[i - 1]), len(point_cands)), -np.inf)
        for pi, a in enumerate(cands[i - 1]):
            if not np.isfinite(dp[pi]):
                continue
            tr[pi] = [
                transition_logprob(d, gc, params.beta_m)
                for d in _route_distances(network, trees, a, point_cands)
            ]
        col_best = (dp[:, None] + tr).max(axis=0)
        if not np.isfinite(col_best).any():
            close_chain(start, emissions, transitions)
            start, emissions, transitions, dp = i, [e], [], e
            continue
        emissions.append(e)
        transitions.append(tr)
        dp = col_best + e
    if start is not None:
        close_chain(start, emissions, transitions)

    breaks = [c[0] for c in chains[1:]]
    return MatchResult(
        matched=matched,
        chains=chains,
        routes=routes,
        point_logprob=point_logprob,
        breaks=breaks,
    )
