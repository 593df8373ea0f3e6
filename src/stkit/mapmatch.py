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

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .atomic import _duplicate, _spans, as_table
from .exceptions import (
    BadMatchParams,
    NoCandidatesAnywhere,
    NonLineGeometry,
    UnknownEntity,
)

__all__ = [
    "EARTH_RADIUS_M",
    "haversine_m",
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

# Cells of one block of work, bounding that block's memory: point x segment
# box tests of a candidate search, candidate pairs of a max-sum step or
# route-query chunk, or origin x segment labels of a route settle.
_CELLS = 1 << 15


def _m_per_deg_lon(lat: float) -> float:
    """Meters per degree of longitude at latitude ``lat`` (equirectangular)."""
    return _M_PER_DEG_LAT * max(math.cos(math.radians(lat)), 1e-12)


def haversine_m(lon1, lat1, lon2, lat2):
    """Great-circle distance in meters between lon/lat points, scalars or arrays
    elementwise; squares are products, so both give the same bits."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    half_dphi = np.sin((phi2 - phi1) / 2.0)
    half_dlam = np.sin(np.radians(np.subtract(lon2, lon1)) / 2.0)
    a = half_dphi * half_dphi + np.cos(phi1) * np.cos(phi2) * (half_dlam * half_dlam)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


class _Row(NamedTuple):
    """One origin's settled segments, sorted and ended by a sentinel, each
    with its finite distance."""

    segment: np.ndarray
    dist: np.ndarray
    complete: bool

    def at(self, segments) -> np.ndarray:
        """The distance of each of ``segments``; inf where the row lacks it."""
        pos = self.segment.searchsorted(segments)
        return np.where(self.segment[pos] == segments, self.dist[pos], math.inf)


@dataclass(eq=False, repr=False)
class _RouteTable:
    """Exact on-road routes between segments, filled per origin on demand.

    Distances run from the END of an origin segment to the START of a target:
    a segment's own length is paid on leaving it, and the origin itself is a
    valid target (a route looping back onto it). Segments are int codes in
    sorted id order (``ids[c]`` is code c's id, ``code`` the inverse), so
    ties break exactly as the string ids would, and every distance and every
    predecessor follow from the graph alone. ``lengths`` holds each
    segment's length; code c's out-edges run to ``out_to[out_ptr[c] :
    out_ptr[c + 1]]`` in relation order, and its in-edges come from
    ``in_from[in_ptr[c] : in_ptr[c + 1]]`` in ascending order. These arrays
    are the network's graph; the table's own state is ``rows``.

    :meth:`settle` fills the rows of many origins at once, in blocks of
    ``_CELLS // n_segments`` origins whose labels are one flat float64
    array. First hops out of an origin start at 0.0; each pass extends last
    pass's improved (origin, segment) labels along their out-edges by the
    segment's length and keeps a candidate below the current label and at
    most the origin's bound, the largest current label of its targets (inf
    while any is unreached). A row holds the segments whose final label is
    finite and within the final bound, as arrays sorted by segment and ended
    by a sentinel past every segment. Every such label is exact: each prefix
    of its shortest path lies under it, so the bound never cut that path.
    Float ``+`` is monotone and lengths are non-negative, so this pass and a
    Dijkstra search both give the least left-fold path sum, bit for bit. A
    row whose bound stayed inf is complete: what it lacks is unreachable. A
    query for a segment an incomplete row lacks settles the origin again,
    past the old bound, so the new row extends the old one.

    Predecessors are derived on demand and equal a Dijkstra search's whose
    heap entries are ``(cost, segment, parent)``, parent -1 for a first hop:
    a first hop's is -1, and otherwise it is the smallest in-neighbour ``v``
    with ``dist(v) < dist(w)`` and ``dist(v) + len(v) == dist(w)``. Where
    an in-neighbour at ``dist(w)`` itself joins the two by a flat segment
    (``d + len == d``, say zero-length), which entry pops first depends on
    the settle order, so the heap's pops over that plateau are replayed.
    """

    ids: list[str]
    code: dict[str, int]
    lengths: np.ndarray
    out_ptr: np.ndarray
    out_to: np.ndarray
    in_ptr: np.ndarray
    in_from: np.ndarray
    rows: dict[int, _Row] = field(default_factory=dict)

    @property
    def dtype(self) -> np.dtype:
        """The narrowest signed int type for the codes and the sentinel."""
        return np.min_scalar_type(-len(self.ids) - 1)

    def _out(self, v: int) -> list[int]:
        """The codes segment ``v``'s out-edges run to, in relation order."""
        return self.out_to[self.out_ptr[v] : self.out_ptr[v + 1]].tolist()

    def settle(self, origins: np.ndarray, tptr: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Fill the rows of the distinct origin codes ``origins``, origin k's
        until its targets ``targets[tptr[k]:tptr[k + 1]]`` (at least one) are
        settled; returns the targets' distances, inf when unreachable."""
        n = len(self.ids)
        block = max(1, _CELLS // n)
        out = np.empty(len(targets))
        for lo in range(0, len(origins), block):
            hi = min(lo + block, len(origins))
            part = slice(tptr[lo], tptr[hi])
            out[part] = self._settle_block(origins[lo:hi], tptr[lo : hi + 1] - tptr[lo], targets[part])
        return out

    def _settle_block(self, origins, tptr, targets) -> np.ndarray:
        """:meth:`settle` for one block of origins."""
        n, out_ptr, out_to = len(self.ids), self.out_ptr, self.out_to
        label = np.full(len(origins) * n, math.inf)
        base = np.arange(len(origins)) * n
        first = out_ptr[origins]
        degree = out_ptr[origins + 1] - first
        front = np.repeat(base, degree) + out_to[_spans(first, degree)]
        label[front] = 0.0
        wanted = np.repeat(base, np.diff(tptr)) + targets
        while True:
            bound = np.maximum.reduceat(label[wanted], tptr[:-1])
            if not len(front):
                break
            k, v = np.divmod(front, n)
            first = out_ptr[v]
            degree = out_ptr[v + 1] - first
            cand = np.repeat(label[front] + self.lengths[v], degree)
            dest = np.repeat(k * n, degree) + out_to[_spans(first, degree)]
            keep = (cand < label[dest]) & (cand <= np.repeat(bound[k], degree))
            dest = dest[keep]
            np.minimum.at(label, dest, cand[keep])
            front = _distinct(dest)
        # Each origin's kept segments, then its sentinel, in one flat array.
        rows = label.reshape(len(origins), n)
        kept = np.flatnonzero((rows <= bound[:, None]) & (rows < math.inf))
        k, segment = np.divmod(kept, n)
        at = np.arange(len(k)) + k
        codes = np.full(len(k) + len(origins), n, self.dtype)
        dist = np.full(len(codes), math.inf)
        codes[at], dist[at] = segment, label[kept]
        stops = np.bincount(k, minlength=len(origins)).cumsum() + np.arange(1, len(origins) + 1)
        starts = np.append(0, stops[:-1])
        for o, lo, hi, last in zip(origins.tolist(), starts.tolist(), stops.tolist(), bound.tolist()):
            self.rows[o] = _Row(codes[lo:hi], dist[lo:hi], last == math.inf)
        return label[wanted]

    def start_distances(self, origin: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Cost from the end of each origin segment to the start of its
        target, for distinct code pairs grouped by origin; inf when
        unreachable. Every origin whose row cannot answer is settled in one
        :meth:`settle` call."""
        target = target.astype(self.dtype)
        cuts = np.flatnonzero(np.diff(origin, prepend=-1))
        stops = np.append(cuts[1:], len(origin))
        out, stale = np.empty(len(origin)), []
        for k, (o, lo, hi) in enumerate(zip(origin[cuts].tolist(), cuts.tolist(), stops.tolist())):
            if (row := self.rows.get(o)) is not None:
                dist = row.at(target[lo:hi])
                if row.complete or np.isfinite(dist).all():
                    out[lo:hi] = dist
                    continue
            stale.append(k)
        if stale:
            size = stops[stale] - cuts[stale]
            at = _spans(cuts[stale], size)
            tptr = np.concatenate([[0], size.cumsum()])
            out[at] = self.settle(origin[cuts[stale]], tptr, target[at])
        return out

    def chain(self, origin: int, target: int) -> list[int]:
        """Segment codes from the first hop out of ``origin`` through
        ``target``, which the origin's row must hold."""
        row, first = self.rows[origin], self._out(origin)
        out, d = [target], row.at(target)
        while (w := out[-1]) not in first:
            v = self.in_from[self.in_ptr[w] : self.in_ptr[w + 1]]
            dv = row.at(v)
            tie = dv + self.lengths[v] == d
            k = int(np.argmax(tie))
            if (tie & (dv == d)).any():
                k = int(np.searchsorted(v, self._replay(row, origin, w, d)))
            out.append(int(v[k]))
            d = dv[k]
        return out[::-1]

    def _replay(self, row: _Row, origin: int, target: int, d: float) -> int:
        """Dijkstra's parent of ``target`` on the plateau of segments at
        distance ``d``: its heap pops in (segment, parent) order there, from
        the hops onto the plateau and then along flat segments of it."""
        level = row.segment[:-1][row.dist[:-1] == d]
        count = self.in_ptr[level + 1] - self.in_ptr[level]
        v = self.in_from[_spans(self.in_ptr[level], count)]
        dv = row.at(v)
        onto = (dv < d) & (dv + self.lengths[v] == d)
        heap = [(w, -1) for w in self._out(origin)] if d == 0.0 else []
        heap += zip(np.repeat(level, count)[onto].tolist(), v[onto].tolist())
        heapq.heapify(heap)
        on, done = set(level.tolist()), set()
        while (entry := heapq.heappop(heap))[0] != target:
            w = entry[0]
            if w in done:
                continue
            done.add(w)
            if d + self.lengths[w] == d:
                for x in self._out(w):
                    if x in on and x not in done:
                        heapq.heappush(heap, (x, w))
        return entry[1]


@dataclass(eq=False, repr=False)
class RoadNetwork:
    """Directed segment graph as arrays, in the route table's code order.

    ``routes`` holds the ids, lengths and edges that routing reads, and the
    routes settled so far, which every match on the network reuses.
    ``boxes`` holds each segment's (min lon, min lat, max lon, max lat) as
    the four rows of a [4, n] array, and ``legs`` each polyline leg's start
    lon/lat, end lon/lat, cumulative length at its start and length as the
    rows of a [6, legs] array, segment c's legs from column ``first_leg[c]``
    to ``first_leg[c + 1]``, so a trajectory's candidate search is a few
    array passes.
    """

    routes: _RouteTable
    boxes: np.ndarray
    legs: np.ndarray
    first_leg: np.ndarray

    def segment_lengths(self) -> dict[str, float]:
        """Each segment's length in meters, by id."""
        return dict(zip(self.routes.ids, self.routes.lengths.tolist()))


def build_road_network(geos, rels) -> RoadNetwork:
    """Assemble the directed segment graph from geometry and relation rows.

    Both are Tables or record lists, read as columns. Every geo unit must be
    a LineString (NonLineGeometry names the first that is not) with an id of
    its own (DuplicateId names the first repeat); every relation row of type
    ``geo`` adds one directed edge between known segments. A leg's length is
    :func:`haversine_m`, summed left to right along its polyline. No spatial
    index is built: segment boxes serve any radius.
    """
    geo, rel = as_table("geo", geos), as_table("rel", rels)
    ids, types = geo.field("geo_id"), geo.field("geo_type")
    if (bad := types.flags(lambda t: t != "LineString")).any():
        row = int(np.argmax(bad))
        raise NonLineGeometry(f"geo unit {ids.at(row)!r} is {types.at(row)}, need LineString")
    names, polylines = ids.tolist(), geo.field("coordinates").tolist()
    order = sorted(range(len(names)), key=names.__getitem__)
    code = {names[i]: c for c, i in enumerate(order)}
    if len(code) < len(names):
        row = int(np.argmax(ids.repeats()))
        _duplicate(names[row], "geo", "geo_id", geo.ordinal(row))
    # Every vertex in code order; each but a polyline's last starts a leg.
    lines = [polylines[i] for i in order]
    sizes = np.array([len(line) for line in lines], np.intp)
    x, y = np.array([p for line in lines for p in line], np.float64).reshape(-1, 2).T
    ends = sizes.cumsum()
    start = np.delete(np.arange(len(x)), ends - 1)
    legs = np.stack([x[start], y[start], x[start + 1], y[start + 1]])
    first_leg = np.concatenate([[0], (sizes - 1).cumsum()])
    # Per vertex, its polyline's length up to it: a left fold over positions.
    cum, leg_m = np.zeros(len(x)), np.zeros(len(x))
    leg_m[start] = haversine_m(*legs)
    position = np.arange(len(x)) - np.repeat(ends - sizes, sizes)
    by_position = np.argsort(position, kind="stable")
    for vertex in np.split(by_position, np.bincount(position).cumsum()[:-1])[1:]:
        cum[vertex] = cum[vertex - 1] + leg_m[vertex - 1]
    legs = np.vstack([legs, cum[start], cum[start + 1] - cum[start]])
    boxes = [f.reduceat(v, ends - sizes) for f, v in
             ((np.minimum, x), (np.minimum, y), (np.maximum, x), (np.maximum, y))]

    sides = [rel.field(a) for a in ("origin_id", "des_id")]
    rows = np.flatnonzero(rel.field("rel_type").flags(lambda t: t == "geo"))
    origin, dest = edges = np.stack([side.positions(code)[rows] for side in sides])
    if (edges < 0).any():  # the first unknown in file order, origin first
        k, side = divmod(int(np.argmax(edges.T < 0)), 2)
        raise UnknownEntity(f"relation endpoint {sides[side].at(rows[k])!r} is not a segment")
    degree = np.bincount(origin, minlength=len(names))
    out_to = dest[np.argsort(origin, kind="stable")]
    by_dest = np.argsort(out_to, kind="stable")
    routes = _RouteTable(
        list(code), code, cum[ends - 1],
        np.concatenate([[0], degree.cumsum()]), out_to,
        np.searchsorted(out_to[by_dest], np.arange(len(names) + 1)),
        np.repeat(np.arange(len(names)), degree)[by_dest],
    )
    return RoadNetwork(routes, np.stack(boxes), legs, first_leg)

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


@dataclass(frozen=True, slots=True)
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


def _search(
    network: RoadNetwork, lon: np.ndarray, lat: np.ndarray, params: MatchParams
) -> _Candidates:
    """Every point's segments within the search radius, nearest first, capped.

    A point's pool is the segments whose bounding box meets its ±radius box,
    at the projection's meters-per-degree scale; any other segment is
    farther away. Each leg of a pooled segment is projected in a local
    equirectangular frame centered at the point, and a polyline's first
    nearest leg gives its distance and offset. Ties in distance break on
    segment id, so the result is deterministic. Points go in blocks.
    """
    block = max(1, _CELLS // max(network.boxes.shape[1], 1))
    if len(lon) > block:
        parts = [_search(network, lon[s : s + block], lat[s : s + block], params)
                 for s in range(0, len(lon), block)]
        ptr = np.concatenate([[0], np.concatenate([np.diff(c.ptr) for c in parts]).cumsum()])
        return _Candidates(ptr, *(np.concatenate(column) for column in list(zip(*parts))[1:]))
    m_lon = np.array([_m_per_deg_lon(y) for y in lat.tolist()], dtype=np.float64)
    rlon = params.radius_m / m_lon
    rlat = params.radius_m / _M_PER_DEG_LAT
    lo_lon, lo_lat, hi_lon, hi_lat = network.boxes
    x, y, r = lon[:, None], lat[:, None], rlon[:, None]
    near = (lo_lon <= x + r) & (hi_lon >= x - r)
    near &= (lo_lat <= y + rlat) & (hi_lat >= y - rlat)
    point, code = np.nonzero(near)

    # One row per (point, pooled segment, leg), each pair's legs in order.
    first = network.first_leg[code]
    n_legs = network.first_leg[code + 1] - first
    pair = np.repeat(np.arange(len(code)), n_legs)
    leg = _spans(first, n_legs)
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
    cap = min(params.max_candidates, network.boxes.shape[1])  # a larger cap caps nothing
    best = best[rank < cap]
    pt = point[pair[best]]
    return _Candidates(
        np.concatenate([[0], np.minimum(counts, cap).cumsum()]),
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


def _route_distances(network: RoadNetwork, origin: np.ndarray, target: np.ndarray) -> np.ndarray:
    """:meth:`_RouteTable.start_distances` of the network's route table."""
    return network.routes.start_distances(origin, target)


def _candidate_routes(network: RoadNetwork, start, from_seg, from_off, to_seg, to_off):
    """On-road distance of candidate pairs (segment codes and offsets) whose
    segments are ``start`` apart in the route table; moving forward along a
    shared segment costs the offset difference instead when that is shorter."""
    out = np.take(network.routes.lengths, from_seg) - from_off + start + to_off
    forward = (from_seg == to_seg) & (to_off >= from_off)
    return np.where(forward, np.minimum(out, to_off - from_off), out)


def _one_segment(from_seg, from_off, to_seg, to_off, d):
    """Whether a route of distance ``d`` stays on one segment (ties do)."""
    return (from_seg == to_seg) & (to_off >= from_off) & (d == to_off - from_off)


def shortest_route(
    network: RoadNetwork, a: Candidate, b: Candidate
) -> tuple[float, list[str] | None]:
    """On-road distance and segment sequence from candidate a to candidate b.

    Moving forward along a shared segment costs the offset difference;
    otherwise the route runs to the end of a's segment, through intermediate
    segments, and along b's segment to its offset. Returns (inf, None) when
    b is unreachable. Routes come from the network's shared route table.
    """
    table = network.routes
    ca, cb = table.code[a.segment_id], table.code[b.segment_id]
    start = _route_distances(network, np.array([ca]), np.array([cb]))
    d = float(_candidate_routes(network, start, ca, a.offset_m, cb, b.offset_m)[0])
    if math.isinf(d):
        return d, None
    if _one_segment(ca, a.offset_m, cb, b.offset_m, d):
        return d, [a.segment_id]
    return d, [a.segment_id, *(table.ids[c] for c in table.chain(ca, cb))]


def _max_sum(n_open, at):
    """Max-sum over sequences advanced together, one position at a time.

    ``n_open[t]`` sequences, a prefix of a longest-first order, reach position
    t; ``at(t)`` gives their [B, K] emissions there (-inf padded) and [B, K, K]
    transitions into it (None at t = 0). A candidate is reached when its
    running score is finite; a position that reaches none starts a new chain.
    Returns each position's choices and chain starts, and the last scores.
    """
    dp, _ = at(0)
    fresh, back, top = [np.ones(len(dp), dtype=bool)], [None], [dp.argmax(axis=1)]
    for t in range(1, len(n_open)):
        e, tr = at(t)
        scores = dp[: len(e), :, None] + tr
        back.append(scores.argmax(axis=1))
        dp = scores.max(axis=1) + e
        fresh.append(~np.isfinite(dp).any(axis=1))
        dp[fresh[-1]] = e[fresh[-1]]
        top.append(dp.argmax(axis=1))
    path = [top[-1]]
    for t in range(len(n_open) - 2, -1, -1):
        after, kept = path[-1], ~fresh[t + 1]
        chosen = top[t].copy()
        chosen[: len(after)][kept] = back[t + 1][kept, after[kept]]
        path.append(chosen)
    return path[::-1], fresh, dp


def viterbi_decode(
    emissions: list[np.ndarray], transitions: list[np.ndarray]
) -> tuple[float, list[int]]:
    """Max-sum decoding over a chain of candidate sets.

    ``emissions[i]`` scores the candidates of step i; ``transitions[i]`` is
    the [n_i, n_{i+1}] matrix of step-to-step scores. Returns the best total
    score and one argmax candidate index per step. Adding a constant to all
    of a step's emission or transition scores shifts the score but never
    changes the argmax path. This is :func:`_max_sum` on one sequence, so a
    step no finite score reaches restarts the chain, and scores the last.
    """
    width = max(map(len, emissions))
    e = np.full((len(emissions), 1, width), -np.inf)
    tr = np.full((len(emissions), 1, width, width), -np.inf)
    for t, scores in enumerate(emissions):
        e[t, 0, : len(scores)] = scores
        if t:
            tr[t, 0, : len(emissions[t - 1]), : len(scores)] = transitions[t - 1]
    path, _, dp = _max_sum([1] * len(emissions), lambda t: (e[t], tr[t] if t else None))
    return float(dp.max()), [int(c[0]) for c in path]


@dataclass
class MatchResult:
    """Everything the matcher decided for a run; trajectory k is points
    ``ptr[k]`` to ``ptr[k + 1]``. ``matched[i]`` is point i's chosen candidate
    (None when it had none in radius); ``chains`` lists the half-open
    [start, stop) point ranges decoded jointly, none across a trajectory
    bound; ``routes`` holds one stitched segment-id sequence per chain;
    ``point_logprob[i]`` is point i's emission plus incoming transition.
    """

    matched: list[Candidate | None]
    chains: list[tuple[int, int]]
    routes: list[list[str]]
    point_logprob: list[float | None]
    ptr: list[int]

    @property
    def breaks(self) -> list[int]:
        """The chain starts after a trajectory's first chain, where
        continuity was lost."""
        inner = self.ptr[1:-1]
        return [s for (b, _), (s, _) in zip(self.chains, self.chains[1:])
                if bisect.bisect_right(inner, b) == bisect.bisect_right(inner, s)]

    def trajectory(self, k: int) -> MatchResult:
        """Trajectory k's part, as a one-trajectory match of its points."""
        lo, hi = self.ptr[k], self.ptr[k + 1]
        first, last = (bisect.bisect_left(self.chains, (i,)) for i in (lo, hi))
        chains = [(start - lo, stop - lo) for start, stop in self.chains[first:last]]
        return MatchResult(self.matched[lo:hi], chains, self.routes[first:last],
                           self.point_logprob[lo:hi], [0, hi - lo])

    def route(self) -> list[str]:
        """All chain routes concatenated, consecutive duplicates removed."""
        out: list[str] = []
        for chain_route in self.routes:
            for gid in chain_route:
                if not out or out[-1] != gid:
                    out.append(gid)
        return out


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of integer ``keys``, sorted."""
    keys = np.sort(keys)
    return np.concatenate([keys[:1], keys[1:][keys[1:] != keys[:-1]]])


def viterbi_match(
    network: RoadNetwork, points, params: MatchParams, ptr=None
) -> MatchResult:
    """Match a run of trajectories, an [n, 2] array or list of (lon, lat), to
    the network; trajectory k is points ``ptr[k]`` to ``ptr[k + 1]`` (default:
    one trajectory). One search finds every point's candidates, the route
    table settles each origin segment once for every target the run asks of
    it, and :func:`_max_sum` advances all trajectories together. A point that
    no finite route reaches, or that has no candidate, closes its chain; no
    chain crosses a trajectory bound, so part k equals a one-trajectory call.
    Raises NoCandidatesAnywhere for the first trajectory without a candidate.
    """
    points = np.asarray(points, dtype=np.float64)
    ptr = np.asarray([0, len(points)] if ptr is None else ptr, dtype=np.int64)
    sizes = np.diff(ptr)
    if len(ptr) < 2 or ptr[0] != 0 or ptr[-1] != len(points) or not (sizes > 0).all():
        raise ValueError(f"trajectories need points: {len(points)} split at {ptr.tolist()}")
    if points.shape != (len(points), 2):
        raise ValueError(f"points must be (lon, lat) pairs, got shape {points.shape}")
    lon, lat = points.T
    cands = _search(network, lon, lat, params)
    cptr, count, code, offset = cands.ptr, np.diff(cands.ptr), cands.code, cands.offset_m
    found = np.add.reduceat(count, ptr[:-1])
    if not found.all():
        raise NoCandidatesAnywhere(
            f"no candidates within {params.radius_m} m of any of the "
            f"{sizes[np.argmin(found)]} points"
        )
    emissions = np.append(emission_logprob(cands.distance_m, params.sigma_m), -np.inf)
    greatcircle = np.append(0.0, haversine_m(lon[:-1], lat[:-1], lon[1:], lat[1:]))  # i - 1 to i
    width = int(count.max())
    block = max(1, _CELLS // (width * width))

    def pairs(p):
        """Candidate pairs of the steps into points p: step, rows and ranks."""
        size = count[p - 1] * count[p]
        step = np.repeat(np.arange(len(p)), size)
        rank_in_step = np.arange(len(step)) - np.repeat(size.cumsum() - size, size)
        i, j = np.divmod(rank_in_step, count[p][step])
        return step, cptr[p - 1][step] + i, cptr[p][step] + j, i, j

    # Every step's segment pairs, then one table query for their union.
    n_seg = len(network.routes.ids)
    steps = np.setdiff1d(np.arange(len(points)), ptr, assume_unique=True)
    chunks = (pairs(steps[s : s + block])[1:3] for s in range(0, len(steps), block))
    asked = (_distinct(code[a] * n_seg + code[b]) for a, b in chunks)
    keys = _distinct(np.concatenate([np.empty(0, np.int64), *asked]))
    starts = _route_distances(network, *np.divmod(keys, n_seg))

    def route_m(a, b):
        """Route distances from candidate rows a to candidate rows b."""
        start = starts[np.searchsorted(keys, code[a] * n_seg + code[b])]
        return _candidate_routes(network, start, code[a], offset[a], code[b], offset[b])

    # Longest trajectories first, in groups whose steps fit the cell bound.
    choice, fresh = np.zeros(len(points), dtype=np.int64), np.zeros(len(points), dtype=bool)
    order = np.argsort(-sizes, kind="stable")
    rank = np.arange(width)
    for g in range(0, len(order), block):
        first, length = ptr[order[g : g + block]], sizes[order[g : g + block]]

        def at(t):
            p = first[: n_open[t]] + t
            e = emissions[np.where(rank < count[p, None], cptr[p, None] + rank, -1)]
            if not t:
                return e, None
            step, a, b, i, j = pairs(p)
            tr = np.full((len(p), width, width), -np.inf)
            tr[step, i, j] = transition_logprob(route_m(a, b), greatcircle[p][step], params.beta_m)
            return e, tr

        n_open = np.searchsorted(-length, -np.arange(length[0]))
        for t, (c, f) in enumerate(zip(*_max_sum(n_open, at)[:2])):
            choice[first[: len(c)] + t], fresh[first[: len(c)] + t] = c, f

    # A chain runs from one chain start to the next, over matched points.
    matched = count > 0
    rows, fresh = (cptr[:-1] + choice)[matched], fresh[matched]
    point, lead, legs = np.flatnonzero(matched), np.flatnonzero(fresh), np.flatnonzero(~fresh)
    stops = point[np.append(lead[1:], len(point)) - 1] + 1
    a, b = rows[legs - 1], rows[legs]
    leg_m = route_m(a, b)
    logprob = emissions[rows]
    logprob[legs] += transition_logprob(leg_m, greatcircle[point[legs]], params.beta_m)
    hops = ~_one_segment(code[a], offset[a], code[b], offset[b], leg_m)
    stitched = [[c] for c in code[rows[lead]].tolist()]
    chain_of = np.searchsorted(lead, legs[hops], side="right") - 1
    for k, o, t in zip(chain_of.tolist(), code[a[hops]].tolist(), code[b[hops]].tolist()):
        stitched[k] += network.routes.chain(o, t)
    picked, scores = iter(cands.pick(network, rows)), iter(logprob.tolist())
    return MatchResult(
        [next(picked) if m else None for m in matched.tolist()],
        list(zip(point[lead].tolist(), stops.tolist())),
        [[network.routes.ids[c] for c, prev in zip(r, [-1, *r]) if c != prev] for r in stitched],
        [next(scores) if m else None for m in matched.tolist()],
        ptr.tolist(),
    )
