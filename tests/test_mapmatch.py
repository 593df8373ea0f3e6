"""Road network assembly, candidate projection, routing, Viterbi matching."""

import heapq
import itertools
import math
import struct
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    Segment,
    dijkstra_settle,
    network_arrays,
    object_network,
    successors,
    polyline,
    road_network,
    route_table,
    scalar_candidates,
)
from stkit import mapmatch
from stkit.atomic import GeoUnit, RelationRecord, read_table, write_table
from stkit.exceptions import (
    BadMatchParams,
    DuplicateId,
    NoCandidatesAnywhere,
    NonLineGeometry,
    StkitError,
    UnknownEntity,
)
from stkit.mapmatch import (
    Candidate,
    MatchParams,
    MatchResult,
    _candidate_routes,
    _distinct,
    _route_distances,
    build_road_network,
    candidate_segments,
    emission_logprob,
    haversine_m,
    shortest_route,
    transition_logprob,
    viterbi_decode,
    viterbi_match,
)
from stkit.synthetic import generate_synthetic

M_PER_DEG = 6371000.0 * math.pi / 180.0  # ~111194.93 m


def line(gid, *coords):
    return GeoUnit(gid, "LineString", tuple(coords), {})


def rel(rid, a, b):
    return RelationRecord(rid, "geo", a, b, {})


def corridor():
    """Two east-west segments joined head to tail at lon 0.001."""
    geos = [
        line("A", (0.0, 0.0), (0.001, 0.0)),
        line("B", (0.001, 0.0), (0.002, 0.0)),
    ]
    rels = [rel("r0", "A", "B")]
    return build_road_network(geos, rels)


# -- distances ---------------------------------------------------------------


def test_haversine_small_latitude_step():
    d = haversine_m(0.0, 0.0, 0.0, 0.001)
    assert abs(d - 0.001 * M_PER_DEG) < 1e-6
    assert abs(d - 111.19492664455873) < 1e-6


def test_haversine_longitude_shrinks_with_latitude():
    at_equator = haversine_m(0.0, 0.0, 0.001, 0.0)
    at_60 = haversine_m(0.0, 60.0, 0.001, 60.0)
    assert abs(at_60 / at_equator - 0.5) < 1e-4  # cos(60 deg)


def test_haversine_zero_and_symmetry():
    assert haversine_m(10.0, 20.0, 10.0, 20.0) == 0.0
    assert haversine_m(1.0, 2.0, 3.0, 4.0) == haversine_m(3.0, 4.0, 1.0, 2.0)


# -- network -----------------------------------------------------------------


def test_network_segments_and_edges():
    net = corridor()
    assert net.routes.ids == ["A", "B"] and net.routes.code == {"A": 0, "B": 1}
    length_a = float(net.routes.lengths[0])
    assert abs(length_a - 0.001 * M_PER_DEG) < 1e-6
    assert net.legs[:4, 0].tolist() == [0.0, 0.0, 0.001, 0.0]  # A's start, then end
    assert net.boxes[:, 0].tolist() == [0.0, 0.0, 0.001, 0.0]
    assert successors(net) == {"A": ("B",), "B": ()}
    assert net.segment_lengths()["A"] == length_a


def test_network_polyline_length_sums_legs():
    net = build_road_network(
        [line("Z", (0.0, 0.0), (0.001, 0.0), (0.001, 0.001))], []
    )
    assert abs(net.segment_lengths()["Z"] - 2 * 0.001 * M_PER_DEG) < 1e-3
    assert net.first_leg.tolist() == [0, 2]
    assert net.legs[4:, 1].sum() == net.segment_lengths()["Z"]


def test_network_rejects_non_lines():
    with pytest.raises(NonLineGeometry):
        build_road_network([GeoUnit("P", "Point", ((0.0, 0.0),), {})], [])


def test_network_rejects_dangling_relation():
    with pytest.raises(UnknownEntity):
        build_road_network([line("A", (0.0, 0.0), (0.001, 0.0))], [rel("r0", "A", "Z")])


def test_network_rejects_a_repeated_geo_id():
    geos = [
        line("B", (0.0, 0.0), (0.001, 0.0)),
        line("A", (0.001, 0.0), (0.002, 0.0)),
        line("B", (0.002, 0.0), (0.003, 0.0)),
    ]
    with pytest.raises(DuplicateId, match="identifier 'B' already used") as info:
        build_road_network(geos, [])
    assert (info.value.table, info.value.row, info.value.column) == ("geo", 3, "geo_id")


def as_read_table(kind, records):
    return read_table(kind, write_table(kind, records))


def network_fields(net):
    """Every array of a network, named as :func:`network_arrays` names them."""
    r = net.routes
    return {"ids": r.ids, "code": r.code, "lengths": r.lengths, "out_ptr": r.out_ptr,
            "out_to": r.out_to, "in_ptr": r.in_ptr, "in_from": r.in_from,
            "boxes": net.boxes, "legs": net.legs, "first_leg": net.first_leg}


def assert_same_arrays(got, want):
    """Equal ids and codes, and arrays of equal dtype, shape and bytes."""
    assert got.keys() == want.keys()
    for name, w in want.items():
        g = got[name]
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            assert g.tobytes() == w.tobytes(), name
        else:
            assert g == w, name


def test_network_from_read_tables_equals_the_one_from_record_lists():
    ds = generate_synthetic("road_network", {"n": 3}).dataset
    geos, rels = list(ds.geo), list(ds.rel)
    want = build_road_network(geos, rels)
    got = build_road_network(as_read_table("geo", geos), as_read_table("rel", rels))
    assert len(want.routes.ids) > 0
    assert_same_arrays(network_fields(got), network_fields(want))


@pytest.mark.parametrize("read", [False, True], ids=["records", "read"])
def test_network_arrays_equal_the_object_network_bit_for_bit(read):
    """Every array of the network equals the one made from Segment objects
    and edge dicts, by bytes: on synthetic grids of 48 to 6,240 segments, on
    no segments at all, and on shuffled multi-leg polylines with random
    edges, self-loops and repeated edges among them."""
    tables = as_read_table if read else (lambda kind, records: records)
    cases = [([], [])]
    for n in (4, 12, 40):
        ds = generate_synthetic("road_network", {"n": n}).dataset
        cases.append((list(ds.geo), list(ds.rel)))
    rng = np.random.default_rng(103)
    seen = {"zero_legs": 0, "self_loops": 0, "repeats": 0}
    for trial in range(40):
        geos = multi_leg_geos(rng, int(rng.integers(1, 20)))
        geos = [geos[i] for i in rng.permutation(len(geos))]
        ids = [g.geo_id for g in geos]
        pairs = rng.integers(0, len(ids), size=(int(rng.integers(0, 3 * len(ids))), 2)).tolist()
        cases.append((geos, [rel(f"r{k}", ids[a], ids[b]) for k, (a, b) in enumerate(pairs)]))
        seen["zero_legs"] += sum(a == b for g in geos for a, b in zip(g.coordinates, g.coordinates[1:]))
        seen["self_loops"] += sum(a == b for a, b in pairs)
        seen["repeats"] += len(pairs) - len(set(map(tuple, pairs)))
    for geos, rels in cases:
        geo, rel_table = tables("geo", geos), tables("rel", rels)
        want = network_arrays(*object_network(geo, rel_table))
        assert_same_arrays(network_fields(build_road_network(geo, rel_table)), want)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("read", [False, True], ids=["records", "read"])
def test_network_errors_name_the_first_offending_row(read):
    tables = as_read_table if read else (lambda kind, records: records)
    ring = ((0.0, 0.0), (0.001, 0.0), (0.001, 0.001), (0.0, 0.0))
    geos = [
        line("A", (0.0, 0.0), (0.001, 0.0)),
        GeoUnit("Q", "Polygon", ring, {}),
        GeoUnit("P", "Point", ((0.0, 0.0),), {}),
    ]
    with pytest.raises(NonLineGeometry, match="geo unit 'Q' is Polygon, need LineString"):
        build_road_network(tables("geo", geos), [])
    rels = [
        rel("r0", "A", "B"),
        RelationRecord("r1", "usr", "u0", "Y", {}),
        rel("r2", "X", "Z"),
        rel("r3", "Y", "A"),
    ]
    two = [geos[0], line("B", (0.001, 0.0), (0.002, 0.0))]
    with pytest.raises(UnknownEntity, match="relation endpoint 'X' is not a segment"):
        build_road_network(tables("geo", two), tables("rel", rels))
    rels[2] = rel("r2", "B", "Z")
    with pytest.raises(UnknownEntity, match="relation endpoint 'Z' is not a segment"):
        build_road_network(tables("geo", two), tables("rel", rels))


def test_network_ignores_non_geo_relations():
    net = build_road_network(
        [line("A", (0.0, 0.0), (0.001, 0.0))],
        [RelationRecord("r0", "usr", "u0", "u1", {})],
    )
    assert successors(net) == {"A": ()}


# -- candidates --------------------------------------------------------------


def test_candidate_on_segment_projects_exactly():
    net = corridor()
    params = MatchParams()
    cands = candidate_segments(net, 0.0005, 0.0, params)
    assert cands[0].segment_id == "A"
    assert cands[0].distance_m < 1e-9
    assert abs(cands[0].offset_m - 0.0005 * M_PER_DEG) < 1e-6


def test_candidate_perpendicular_distance():
    net = corridor()
    cands = candidate_segments(net, 0.0005, 0.0001, MatchParams(radius_m=50.0))
    assert cands[0].segment_id == "A"
    assert abs(cands[0].distance_m - 0.0001 * M_PER_DEG) < 1e-3
    # The projection foot keeps the along-track position.
    assert abs(cands[0].offset_m - 0.0005 * M_PER_DEG) < 1e-3


def test_candidate_endpoint_clamping():
    net = corridor()
    # West of A's start: the foot clamps to the endpoint, offset 0.
    cands = candidate_segments(net, -0.0005, 0.0, MatchParams(radius_m=100.0))
    assert cands[0].segment_id == "A"
    assert cands[0].offset_m == 0.0
    assert abs(cands[0].distance_m - 0.0005 * M_PER_DEG) < 1e-3


def test_candidates_sorted_capped_and_bounded():
    net = corridor()
    # Junction point: equidistant from A (offset end) and B (offset 0).
    cands = candidate_segments(net, 0.001, 0.0, MatchParams())
    assert [c.segment_id for c in cands] == ["A", "B"]  # distance tie, id order
    one = candidate_segments(net, 0.001, 0.0, MatchParams(max_candidates=1))
    assert [c.segment_id for c in one] == ["A"]
    far = candidate_segments(net, 0.001, 0.5, MatchParams(radius_m=200.0))
    assert far == []


def bits(cands):
    """Candidates as segment ids and the bytes of their floats."""
    return [
        (c.segment_id, *(struct.pack("<d", v) for v in (c.lon, c.lat, c.distance_m, c.offset_m)))
        for c in cands
    ]


def multi_leg_geos(rng, n_segments):
    """Polylines of one to five legs with repeated vertices (zero-length
    legs), twins (the same polyline under a later id: equal distances) and
    out-and-back polylines (two legs equally near), at city coordinates, where
    1e-12 m is below half a float step."""
    geos = []
    for i in range(n_segments):
        coords = [tuple((rng.uniform(0.0, 0.01, size=2) + (116.3, 39.9)).tolist())]
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.25:
                coords.append(coords[-1])
            else:
                step = rng.normal(0, 0.002, size=2)
                coords.append(tuple((np.array(coords[-1]) + step).tolist()))
        geos.append(line(f"s{i:02d}", *coords))
        if rng.random() < 0.3:
            geos.append(line(f"t{i:02d}", *coords))
        if rng.random() < 0.3:
            geos.append(line(f"b{i:02d}", coords[0], coords[-1], coords[0]))
    return geos


def multi_leg_network(rng, n_segments):
    """The polylines of :func:`multi_leg_geos`, without edges."""
    return build_road_network(multi_leg_geos(rng, n_segments), [])


def test_trajectory_search_equals_the_scalar_search_bit_for_bit(monkeypatch):
    """The whole-trajectory candidate search gives every point exactly the
    candidates of the scalar per-point search, float bits included: on
    multi-leg polylines with zero-length legs, on every vertex, at radii from
    1e-12 m to wider than the network and caps from 1 to unbounded, and in
    box-test blocks of any size."""
    rng = np.random.default_rng(97)
    seen = {"zero_legs": 0, "on_vertex": 0, "segment_ties": 0, "capped": 0}
    for trial in range(4):
        network = multi_leg_network(rng, int(rng.integers(8, 20)))
        segments = [polyline(network, g) for g in network.routes.ids]
        vertices = sorted({c for s in segments for c in s.coords})
        seen["zero_legs"] += sum(
            a == b for s in segments for a, b in zip(s.coords, s.coords[1:])
        )
        box = rng.uniform(-0.003, 0.013, size=(150, 2)) + (116.3, 39.9)
        points = [tuple(p) for p in box.tolist()] + vertices
        lon, lat = np.array(points).T
        # A radius equal to a candidate's distance keeps that candidate.
        wide = scalar_candidates(network, *points[0], MatchParams(radius_m=1e7))
        exact = wide[len(wide) // 2].distance_m
        for radius in (1e-12, 1e-9, 5.0, 40.0, 150.0, exact, 600.0, 1e7):
            want = [
                scalar_candidates(network, x, y, MatchParams(radius_m=radius, max_candidates=10**9))
                for x, y in points
            ]
            for cap in (1, 2, 3, 5, 10**9):
                params = MatchParams(radius_m=radius, max_candidates=cap)
                monkeypatch.setattr(mapmatch, "_BOX_CELLS", int(rng.choice([1, 7, 1 << 18])))
                found = mapmatch._search(network, lon, lat, params)
                for i, w in enumerate(want):
                    got = found.pick(network, slice(found.ptr[i], found.ptr[i + 1]))
                    assert bits(got) == bits(w[:cap]), (radius, cap, points[i])
                    seen["capped"] += len(w) > cap
                assert bits(candidate_segments(network, *points[0], params)) == bits(want[0][:cap])
            for (x, y), w in zip(points, want):
                seen["on_vertex"] += radius < 1e-6 and (x, y) in vertices and w[0].distance_m == 0.0
                seen["segment_ties"] += any(
                    a.distance_m == b.distance_m for a, b in zip(w, w[1:])
                )
    assert all(v > 0 for v in seen.values()), seen


def test_equally_near_legs_keep_the_first():
    """A point beside an out-and-back polyline is equally near both legs; the
    first leg gives its offset, as the scalar search does."""
    net = build_road_network([line("A", (0.0, 0.0), (0.001, 0.0), (0.0, 0.0))], [])
    (c,) = candidate_segments(net, 0.0004, 0.0001, MatchParams())
    assert c.offset_m < net.segment_lengths()["A"] / 2
    assert bits([c]) == bits(scalar_candidates(net, 0.0004, 0.0001, MatchParams()))


# -- hmm scores --------------------------------------------------------------


def test_emission_zero_distance_pin():
    got = emission_logprob(0.0, 10.0)
    assert abs(got - (-3.2215236261987186)) < 1e-12
    assert got == -math.log(10.0 * math.sqrt(2.0 * math.pi))


def test_emission_monotone_in_distance():
    scores = [emission_logprob(d, 10.0) for d in (0.0, 5.0, 10.0, 50.0)]
    assert scores == sorted(scores, reverse=True)


def test_transition_equal_distances_pin():
    assert transition_logprob(100.0, 100.0, 5.0) == -math.log(5.0)
    assert transition_logprob(110.0, 100.0, 5.0) == -2.0 - math.log(5.0)
    assert transition_logprob(math.inf, 100.0, 5.0) == -math.inf


# -- routing -----------------------------------------------------------------


def test_route_same_segment_forward():
    net = corridor()
    p = MatchParams()
    a = candidate_segments(net, 0.0001, 0.0, p)[0]
    b = candidate_segments(net, 0.0004, 0.0, p)[0]
    assert a.segment_id == b.segment_id == "A"
    d, route = shortest_route(net, a, b)
    assert abs(d - (b.offset_m - a.offset_m)) < 1e-9
    assert abs(d - 0.0003 * M_PER_DEG) < 1e-3
    assert route == ["A"]


def test_route_across_junction():
    net = corridor()
    p = MatchParams()
    a = candidate_segments(net, 0.0008, 0.0, p)[0]
    b_cands = candidate_segments(net, 0.0012, 0.0, p)
    b = next(c for c in b_cands if c.segment_id == "B")
    d, route = shortest_route(net, a, b)
    lenA = net.segment_lengths()["A"]
    assert abs(d - ((lenA - a.offset_m) + b.offset_m)) < 1e-9
    assert route == ["A", "B"]


def test_route_backward_needs_a_cycle():
    net = corridor()  # no return edges anywhere
    p = MatchParams()
    a = candidate_segments(net, 0.0008, 0.0, p)[0]
    b = candidate_segments(net, 0.0002, 0.0, p)[0]
    d, route = shortest_route(net, a, b)
    assert math.isinf(d) and route is None


def test_route_around_a_loop():
    # Two antiparallel segments form a cycle: A east, R back west.
    geos = [
        line("A", (0.0, 0.0), (0.001, 0.0)),
        line("R", (0.001, 0.0), (0.0, 0.0)),
    ]
    net = build_road_network(geos, [rel("r0", "A", "R"), rel("r1", "R", "A")])
    p = MatchParams()
    a = candidate_segments(net, 0.0008, 0.0, p)
    b = candidate_segments(net, 0.0002, 0.0, p)
    cand_a = next(c for c in a if c.segment_id == "A")
    cand_b = next(c for c in b if c.segment_id == "A")
    d, route = shortest_route(net, cand_a, cand_b)
    lenA, lenR = net.segment_lengths()["A"], net.segment_lengths()["R"]
    want = (lenA - cand_a.offset_m) + lenR + cand_b.offset_m
    assert abs(d - want) < 1e-9
    assert route == ["A", "R", "A"]


def test_route_disconnected_components():
    geos = [
        line("A", (0.0, 0.0), (0.001, 0.0)),
        line("B", (0.01, 0.0), (0.011, 0.0)),
    ]
    net = build_road_network(geos, [])
    p = MatchParams(radius_m=500.0)
    a = candidate_segments(net, 0.0005, 0.0, p)[0]
    b = candidate_segments(net, 0.0105, 0.0, p)[0]
    d, route = shortest_route(net, a, b)
    assert math.isinf(d) and route is None


# -- viterbi decoding --------------------------------------------------------


def brute_force_best(emissions, transitions):
    """Enumerate every path, summing in the dp association order."""
    sizes = [len(e) for e in emissions]
    best = (-math.inf, None)
    for path in itertools.product(*(range(n) for n in sizes)):
        s = float(emissions[0][path[0]])
        for i in range(1, len(path)):
            s = s + float(transitions[i - 1][path[i - 1], path[i]])
            s = s + float(emissions[i][path[i]])
        if s > best[0]:
            best = (s, list(path))
    return best


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(50):
        sizes = rng.integers(1, 4, size=rng.integers(1, 5))
        emissions = [rng.normal(size=n) for n in sizes]
        transitions = [
            rng.normal(size=(sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)
        ]
        score, path = viterbi_decode(emissions, transitions)
        want_score, _ = brute_force_best(emissions, transitions)
        assert score == want_score
        # The returned path realizes the winning score.
        s = float(emissions[0][path[0]])
        for i in range(1, len(path)):
            s = s + float(transitions[i - 1][path[i - 1], path[i]])
            s = s + float(emissions[i][path[i]])
        assert s == score


def test_viterbi_constant_shift_keeps_argmax():
    rng = np.random.default_rng(29)
    sizes = [3, 2, 3]
    emissions = [rng.normal(size=n) for n in sizes]
    transitions = [rng.normal(size=(3, 2)), rng.normal(size=(2, 3))]
    score, path = viterbi_decode(emissions, transitions)
    shifted = [e + 7.0 for e in emissions]
    score2, path2 = viterbi_decode(shifted, transitions)
    assert path2 == path
    assert abs(score2 - (score + 21.0)) < 1e-9


def test_viterbi_single_step():
    score, path = viterbi_decode([np.array([1.0, 3.0, 2.0])], [])
    assert (score, path) == (3.0, [1])


# -- end to end matching -----------------------------------------------------


def test_match_clean_corridor():
    net = corridor()
    points = [(0.0002, 0.0), (0.0007, 0.0), (0.0012, 0.0), (0.0018, 0.0)]
    result = viterbi_match(net, points, MatchParams())
    assert result.chains == [(0, 4)]
    assert result.breaks == []
    assert result.route() == ["A", "B"]
    assert [c.segment_id for c in result.matched] == ["A", "A", "B", "B"]
    assert all(p is not None for p in result.point_logprob)


def test_match_accepts_point_arrays():
    net = corridor()
    points = [(0.0002, 0.0), (0.0012, 0.0)]
    result = viterbi_match(net, np.array(points), MatchParams())
    assert result == viterbi_match(net, points, MatchParams())
    assert result.route() == ["A", "B"]
    with pytest.raises(ValueError):
        viterbi_match(net, np.zeros((2, 3)), MatchParams())


def test_match_break_and_restart():
    net = corridor()
    # Point 1 is way off-network: chain closes, a new one starts at point 2.
    points = [(0.0002, 0.0), (0.5, 0.5), (0.0015, 0.0)]
    result = viterbi_match(net, points, MatchParams())
    assert result.chains == [(0, 1), (2, 3)]
    assert result.breaks == [2]
    assert result.matched[1] is None
    assert result.point_logprob[1] is None
    assert result.route() == ["A", "B"]


def test_match_restart_on_unreachable_transition():
    # Two disconnected corridors: the decoder cannot route between them, so
    # continuity breaks even though every point has candidates.
    geos = [
        line("A", (0.0, 0.0), (0.001, 0.0)),
        line("B", (0.01, 0.0), (0.011, 0.0)),
    ]
    net = build_road_network(geos, [])
    points = [(0.0005, 0.0), (0.0105, 0.0)]
    result = viterbi_match(net, points, MatchParams())
    assert result.chains == [(0, 1), (1, 2)]
    assert result.breaks == [1]
    assert [c.segment_id for c in result.matched] == ["A", "B"]


def test_match_single_point_nearest_segment():
    net = corridor()
    result = viterbi_match(net, [(0.00165, 0.0)], MatchParams())
    assert result.matched[0].segment_id == "B"
    assert result.route() == ["B"]


def test_match_no_candidates_anywhere():
    net = corridor()
    with pytest.raises(NoCandidatesAnywhere):
        viterbi_match(net, [(0.5, 0.5)], MatchParams())
    with pytest.raises(ValueError):
        viterbi_match(net, [], MatchParams())


def test_match_params_validation():
    with pytest.raises(ValueError):
        MatchParams(sigma_m=0.0)
    with pytest.raises(ValueError):
        MatchParams(max_candidates=0)


def test_match_params_reject_non_finite():
    for kwargs, param in (
        ({"beta_m": math.nan}, "beta_m"),
        ({"sigma_m": math.nan}, "sigma_m"),
        ({"radius_m": math.inf}, "radius_m"),
        ({"radius_m": -math.inf}, "radius_m"),
        ({"sigma_m": -5.0}, "sigma_m"),
        ({"max_candidates": -1}, "max_candidates"),
    ):
        with pytest.raises(BadMatchParams) as info:
            MatchParams(**kwargs)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, StkitError)
        assert info.value.param == param
        assert param in str(info.value)


def test_match_scales_have_a_one_millimeter_floor():
    """sigma_m and beta_m of 1 mm keep every emission and every finite-route
    transition finite, out to distances past the Earth's circumference; a
    smaller scale is rejected, naming its field."""
    params = MatchParams(sigma_m=1e-3, beta_m=1e-3)
    far = 4.1e7
    assert math.isfinite(emission_logprob(far, params.sigma_m))
    routes = np.array([0.0, far, 1e9])
    assert np.isfinite(transition_logprob(routes, far, params.beta_m)).all()
    for param, value in (("sigma_m", 1e-300), ("beta_m", 1e-320), ("sigma_m", 9.99e-4)):
        with pytest.raises(BadMatchParams) as info:
            MatchParams(**{param: value})
        assert info.value.param == param
        assert param in str(info.value)


def test_breaks_is_a_read_only_view_of_chains():
    net = corridor()
    result = viterbi_match(net, [(0.0002, 0.0), (0.5, 0.5), (0.0015, 0.0)], MatchParams())
    assert result.breaks == [2]
    result.chains.append((3, 4))
    assert result.breaks == [2, 3]
    with pytest.raises(AttributeError):
        result.breaks = []
    with pytest.raises(TypeError):
        MatchResult([], [], [], [], breaks=[])


# -- the shared route table against a per-call Dijkstra reference -------------


def _reference_route_distances(network, origin, target_segments):
    """Fresh Dijkstra from a candidate to the START of each target segment."""
    lengths, succ_of = network.segment_lengths(), successors(network)
    init = lengths[origin.segment_id] - origin.offset_m
    dist, prev, heap = {}, {}, []
    for succ in succ_of.get(origin.segment_id, ()):
        heapq.heappush(heap, (init, succ, None))
    pending = set(target_segments)
    while heap and pending:
        d, v, parent = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        prev[v] = parent
        pending.discard(v)
        dv = d + lengths[v]
        for w in succ_of.get(v, ()):
            if w not in dist:
                heapq.heappush(heap, (dv, w, v))
    return {t: (dist.get(t, math.inf), prev) for t in target_segments}


def _reference_shortest_route(network, a, b):
    best, route = math.inf, None
    if a.segment_id == b.segment_id and b.offset_m >= a.offset_m:
        best, route = b.offset_m - a.offset_m, [a.segment_id]
    d_start, prev = _reference_route_distances(network, a, {b.segment_id})[b.segment_id]
    via = d_start + b.offset_m
    if via < best:
        best = via
        chain = [b.segment_id]
        while prev[chain[-1]] is not None:
            chain.append(prev[chain[-1]])
        route = [a.segment_id, *reversed(chain)]
    return best, route


def _reference_match(network, points, params):
    """The matcher with a new Dijkstra per candidate pair and an inline
    max-sum decoder: (matched, chains, routes, point_logprob, n_loop_legs)."""
    cands = [scalar_candidates(network, lon, lat, params) for lon, lat in points]
    matched = [None] * len(points)
    point_logprob = [None] * len(points)
    chains, routes = [], []
    loop_legs = 0

    def emissions_at(i):
        return np.array(
            [emission_logprob(c.distance_m, params.sigma_m) for c in cands[i]]
        )

    def close_chain(start, stop, dp, back):
        nonlocal loop_legs
        idx = [int(np.argmax(dp))]
        for bp in reversed(back):
            idx.append(int(bp[idx[-1]]))
        idx.reverse()
        chosen = [cands[i][j] for i, j in zip(range(start, stop), idx)]
        matched[start:stop] = chosen
        point_logprob[start] = emission_logprob(chosen[0].distance_m, params.sigma_m)
        route = [chosen[0].segment_id]
        for n in range(1, len(chosen)):
            a, b = chosen[n - 1], chosen[n]
            d, leg = _reference_shortest_route(network, a, b)
            gc = haversine_m(*points[start + n - 1], *points[start + n])
            point_logprob[start + n] = emission_logprob(
                b.distance_m, params.sigma_m
            ) + transition_logprob(d, gc, params.beta_m)
            if leg and len(leg) > 1 and leg[0] == leg[-1]:
                loop_legs += 1
            for gid in leg or ():
                if route[-1] != gid:
                    route.append(gid)
        chains.append((start, stop))
        routes.append(route)

    start, dp, back = None, None, []
    for i, point_cands in enumerate(cands):
        if not point_cands:
            if start is not None:
                close_chain(start, i, dp, back)
                start, dp, back = None, None, []
            continue
        if start is None:
            start, dp, back = i, emissions_at(i), []
            continue
        gc = haversine_m(*points[i - 1], *points[i])
        tr = np.full((len(cands[i - 1]), len(point_cands)), -np.inf)
        for pi, a in enumerate(cands[i - 1]):
            if not np.isfinite(dp[pi]):
                continue
            reach = _reference_route_distances(
                network, a, {c.segment_id for c in point_cands}
            )
            for ci, b in enumerate(point_cands):
                d = reach[b.segment_id][0] + b.offset_m
                if a.segment_id == b.segment_id and b.offset_m >= a.offset_m:
                    d = min(d, b.offset_m - a.offset_m)
                tr[pi, ci] = transition_logprob(d, gc, params.beta_m)
        scores = dp[:, None] + tr
        col_best = scores.max(axis=0)
        if not np.isfinite(col_best).any():
            close_chain(start, i, dp, back)
            start, dp, back = i, emissions_at(i), []
            continue
        back.append(np.argmax(scores, axis=0))
        dp = col_best + emissions_at(i)
    if start is not None:
        close_chain(start, len(points), dp, back)
    return matched, chains, routes, point_logprob, loop_legs


def random_network(rng, n_segments, edge_p):
    """Random directed polylines in a ~1 km box: sparse edges leave pairs
    unreachable, and antiparallel twins make loops back onto a segment."""
    geos, rels = [], []
    for i in range(n_segments):
        lon, lat = rng.uniform(0.0, 0.01, size=2)
        coords = [(float(lon), float(lat))]
        for _ in range(int(rng.integers(1, 3))):
            lon, lat = np.array(coords[-1]) + rng.normal(0, 0.002, size=2)
            coords.append((float(lon), float(lat)))
        geos.append(line(f"s{i}", *coords))
        if rng.random() < 0.3:  # antiparallel twin, joined both ways
            geos.append(line(f"t{i}", *reversed(coords)))
            rels += [rel(f"a{i}", f"s{i}", f"t{i}"), rel(f"b{i}", f"t{i}", f"s{i}")]
    ids = [g.geo_id for g in geos]
    for u in ids:
        for v in ids:
            if u != v and rng.random() < edge_p:
                rels.append(rel(f"r{len(rels)}", u, v))
    return build_road_network(geos, rels)


def random_trace(rng, n_points):
    """A jittery walk through the box with a few far off-network points."""
    pts = []
    lon, lat = rng.uniform(0.0, 0.01, size=2)
    for _ in range(n_points):
        if rng.random() < 0.08:
            pts.append((5.0, 5.0))
            continue
        lon = float(np.clip(lon + rng.normal(0, 0.0008), -0.002, 0.012))
        lat = float(np.clip(lat + rng.normal(0, 0.0008), -0.002, 0.012))
        pts.append((lon, lat))
    return pts


def test_match_equals_per_call_dijkstra_reference():
    """Shared per-trajectory trees change no decision of the matcher: matched
    candidates, chains, routes and breaks equal the per-call reference, and
    point scores agree to 1e-9 relative."""
    rng = np.random.default_rng(31)
    seen = {"off_network_breaks": 0, "unreachable_breaks": 0, "loop_legs": 0, "legs": 0}
    for trial in range(60):
        network = random_network(
            rng, int(rng.integers(6, 16)), float(rng.choice([0.05, 0.15, 0.3]))
        )
        params = MatchParams(
            sigma_m=float(rng.choice([5.0, 20.0, 60.0])),
            beta_m=float(rng.choice([2.0, 10.0, 50.0])),
            radius_m=float(rng.choice([80.0, 200.0])),
            max_candidates=int(rng.integers(1, 6)),
        )
        points = random_trace(rng, int(rng.integers(2, 40)))
        try:
            got = viterbi_match(network, points, params)
        except NoCandidatesAnywhere:
            continue
        matched, chains, routes, logprob, loop_legs = _reference_match(
            network, points, params
        )
        assert got.matched == matched
        assert got.chains == chains
        assert got.routes == routes
        assert got.breaks == [c[0] for c in chains[1:]]
        for g, w in zip(got.point_logprob, logprob):
            if w is None or math.isinf(w):
                assert g == w
            else:
                assert abs(g - w) <= 1e-9 * max(1.0, abs(w))
        for b in got.breaks:
            off_network = matched[b - 1] is None
            seen["off_network_breaks" if off_network else "unreachable_breaks"] += 1
        seen["loop_legs"] += loop_legs
        seen["legs"] += sum(stop - start - 1 for start, stop in chains)
    # The random cases exercised every situation the docstring promises.
    assert all(v > 0 for v in seen.values()), seen


OFF = (5.0, 5.0)  # a point far from every random network


def random_run(rng, network, params):
    """Random traces laid end to end, each with a candidate somewhere: some
    one point long, some starting or ending far off the network. Returns
    the traces, the points and ``ptr``."""
    traces = []
    while len(traces) < 8:
        trace = random_trace(rng, int(rng.choice([1, 1, 2, 5, 20, 40])))
        if rng.random() < 0.25:
            trace = [OFF, *trace]
        if rng.random() < 0.25:
            trace = [*trace, OFF]
        if any(scalar_candidates(network, *p, params) for p in trace):
            traces.append(trace)
    ptr = np.cumsum([0, *map(len, traces)])
    return traces, [p for t in traces for p in t], ptr


def test_run_equals_the_reference_per_trajectory():
    """A run of traces laid end to end decodes each trace as the per-call
    reference does: matched candidates, chains, routes and breaks equal,
    point scores to 1e-9 relative, and the run's breaks are the traces'."""
    rng = np.random.default_rng(53)
    seen = {"one_point": 0, "first_off": 0, "last_off": 0, "breaks": 0}
    for trial in range(25):
        network = random_network(rng, int(rng.integers(6, 16)), float(rng.choice([0.05, 0.3])))
        params = MatchParams(
            sigma_m=float(rng.choice([5.0, 60.0])),
            beta_m=float(rng.choice([2.0, 50.0])),
            radius_m=float(rng.choice([80.0, 200.0])),
            max_candidates=int(rng.integers(1, 6)),
        )
        traces, points, ptr = random_run(rng, network, params)
        run = viterbi_match(network, points, params, ptr)
        assert run.ptr == ptr.tolist() and len(run.matched) == len(points)
        breaks = []
        for k, trace in enumerate(traces):
            got = run.trajectory(k)
            matched, chains, routes, logprob, _ = _reference_match(network, trace, params)
            assert got.matched == matched
            assert got.chains == chains
            assert got.routes == routes
            assert got.breaks == [c[0] for c in chains[1:]]
            for g, w in zip(got.point_logprob, logprob):
                assert (g is None) == (w is None)
                assert w is None or abs(g - w) <= 1e-9 * max(1.0, abs(w))
            breaks += [b + int(ptr[k]) for b in got.breaks]
            seen["one_point"] += len(trace) == 1
            seen["first_off"] += matched[0] is None
            seen["last_off"] += matched[-1] is None
        assert run.breaks == breaks
        seen["breaks"] += len(breaks)
    assert all(v > 0 for v in seen.values()), seen


def test_trajectory_k_equals_a_one_trajectory_call():
    """Part k of a run is exactly what a one-trajectory call on trace k
    returns, on a fresh route table or on the table the run filled."""
    rng = np.random.default_rng(59)
    for trial in range(10):
        network = random_network(rng, int(rng.integers(6, 16)), 0.15)
        params = MatchParams(sigma_m=20.0, beta_m=10.0, max_candidates=int(rng.integers(1, 6)))
        traces, points, ptr = random_run(rng, network, params)
        run = viterbi_match(network, points, params, ptr)
        for k, trace in enumerate(traces):
            alone = viterbi_match(fresh_table(network), trace, params)
            assert run.trajectory(k) == alone == viterbi_match(network, trace, params)
            assert alone.ptr == [0, len(trace)]


def test_no_chain_crosses_a_trajectory_bound():
    """The corridor routes A to B, so one trace over both is one chain; as
    two trajectories it is two chains, and the second start is no break."""
    net = corridor()
    points = [(0.0002, 0.0), (0.0007, 0.0), (0.0012, 0.0), (0.0018, 0.0)]
    assert viterbi_match(net, points, MatchParams()).chains == [(0, 4)]
    run = viterbi_match(net, points, MatchParams(), [0, 2, 4])
    assert run.chains == [(0, 2), (2, 4)]
    assert run.breaks == []
    assert run.routes == [["A"], ["B"]]
    # Point 2 starts a chain: its score is its emission alone.
    assert run.point_logprob[2] == emission_logprob(run.matched[2].distance_m, 10.0)
    # A break inside the second trajectory is still a break.
    run = viterbi_match(net, [*points[:2], (0.0012, 0.0), (0.5, 0.5), (0.0018, 0.0)],
                        MatchParams(), [0, 2, 5])
    assert run.chains == [(0, 2), (2, 3), (4, 5)]
    assert run.breaks == [4]
    assert [len(run.trajectory(k).breaks) for k in (0, 1)] == [0, 1]


def test_no_candidates_anywhere_names_the_first_such_trajectory():
    net = corridor()
    on, off = (0.0005, 0.0), (0.5, 0.5)
    points = [on, on, off, off, off, off, off, on]
    with pytest.raises(NoCandidatesAnywhere) as err:
        viterbi_match(net, points, MatchParams(), [0, 2, 5, 7, 8])
    with pytest.raises(NoCandidatesAnywhere) as alone:
        viterbi_match(net, points[2:5], MatchParams())
    assert str(err.value) == str(alone.value)
    assert "of any of the 3 points" in str(err.value)
    for ptr in ([0, 0, 8], [1, 8], [0, 9], [0, 5, 3, 8]):
        with pytest.raises(ValueError):
            viterbi_match(net, points, MatchParams(), ptr)


def test_each_origin_settles_once_per_run(monkeypatch):
    """A run asks the route table for every step's targets before decoding,
    so each origin segment any step leaves from is settled exactly once."""
    settled = Counter()
    real = mapmatch._RouteTable.settle

    def counting(self, origins, tptr, targets):
        settled.update(origins.tolist())
        return real(self, origins, tptr, targets)

    monkeypatch.setattr(mapmatch._RouteTable, "settle", counting)
    rng = np.random.default_rng(61)
    for trial in range(10):
        network = random_network(rng, int(rng.integers(6, 16)), 0.15)
        params = MatchParams(radius_m=200.0, max_candidates=int(rng.integers(1, 6)))
        traces, points, ptr = random_run(rng, network, params)
        settled.clear()
        viterbi_match(network, points, params, ptr)
        code = network.routes.code
        origins = {
            code[c.segment_id]
            for trace in traces
            for a, b in zip(trace, trace[1:])
            if scalar_candidates(network, *b, params)
            for c in scalar_candidates(network, *a, params)
        }
        assert set(settled) == origins and set(settled.values()) <= {1}


def route_matrix(network, origins, targets):
    """The route distance of every (origin, target) candidate pair, from one
    ``_route_distances`` query over their distinct segment pairs, as a
    [len(origins), len(targets)] matrix."""
    code = network.routes.code
    seg = np.array([code[c.segment_id] for c in [*origins, *targets]])
    off = np.array([c.offset_m for c in [*origins, *targets]])
    o, t = np.divmod(np.arange(len(origins) * len(targets)), len(targets))
    t += len(origins)
    n = len(network.routes.ids)
    keys, inverse = np.unique(seg[o] * n + seg[t], return_inverse=True)
    start = _route_distances(network, *np.divmod(keys, n))[inverse]
    return _candidate_routes(network, start, seg[o], off[o], seg[t], off[t]).reshape(
        len(origins), len(targets)
    )


def fresh_table(network):
    """The same network with a new, empty route table."""
    return replace(network, routes=replace(network.routes, rows={}))


def test_route_tree_resume_order_is_irrelevant():
    """Asking a fresh route table for one origin's targets in any order, one
    at a time or all at once, gives the same distances and routes, and the
    same as shortest_route and a per-call Dijkstra."""
    rng = np.random.default_rng(37)
    for trial in range(10):
        network = random_network(rng, int(rng.integers(6, 16)), 0.15)
        ids, lengths = network.routes.ids, network.segment_lengths()
        origin = ids[int(rng.integers(len(ids)))]
        a = Candidate(origin, 0.0, 0.0, 0.0, float(rng.uniform(0, lengths[origin])))
        targets = [
            Candidate(g, 0.0, 0.0, 0.0, float(rng.uniform(0, lengths[g]))) for g in ids
        ]
        answers = []
        for order in (targets, targets[::-1], list(rng.permutation(targets))):
            table = fresh_table(network)
            got = {}
            for b in order:
                got[b.segment_id] = shortest_route(table, a, b)
                ((d,),) = route_matrix(table, [a], [b])
                assert d == got[b.segment_id][0]
            answers.append(got)
        assert answers[0] == answers[1] == answers[2]
        (at_once,) = route_matrix(fresh_table(network), [a], targets)
        assert at_once.tolist() == [answers[0][b.segment_id][0] for b in targets]
        for b in targets:
            assert answers[0][b.segment_id] == shortest_route(network, a, b)
            # Same decisions as a fresh per-call Dijkstra.
            want_d, want_route = _reference_shortest_route(network, a, b)
            got_d, got_route = answers[0][b.segment_id]
            assert got_route == want_route
            if math.isinf(want_d):
                assert math.isinf(got_d)
            else:
                assert abs(got_d - want_d) <= 1e-9 * max(1.0, want_d)


def test_route_table_filled_by_two_traces_answers_like_a_fresh_one():
    """A table that matched trace A and then trace B matches B as a fresh
    table does, and answers every segment pair as a fresh table, as
    shortest_route and as a per-call Dijkstra do."""
    rng = np.random.default_rng(41)
    partial_rows = 0
    for trial in range(20):
        network = random_network(rng, int(rng.integers(6, 16)), 0.15)
        params = MatchParams(sigma_m=20.0, beta_m=10.0, radius_m=200.0,
                             max_candidates=int(rng.integers(1, 6)))
        trace_a, trace_b = random_trace(rng, 25), random_trace(rng, 25)
        try:
            viterbi_match(network, trace_a, params)
            got_b = viterbi_match(network, trace_b, params)
        except NoCandidatesAnywhere:
            continue
        assert got_b == viterbi_match(fresh_table(network), trace_b, params)
        partial_rows += sum(not row.complete for row in network.routes.rows.values())
        cands = [
            Candidate(g, 0.0, 0.0, 0.0, float(rng.uniform(0, m)))
            for g, m in network.segment_lengths().items()
        ]
        filled = route_matrix(network, cands, cands)
        assert filled.tobytes() == route_matrix(
            fresh_table(network), cands, cands
        ).tobytes()
        for (i, a), (j, b) in itertools.product(enumerate(cands), repeat=2):
            got_d, got_route = shortest_route(network, a, b)
            assert (got_d, got_route) == shortest_route(fresh_table(network), a, b)
            assert got_d == filled[i, j]
            want_d, want_route = _reference_shortest_route(network, a, b)
            assert got_route == want_route
            if math.isinf(want_d):
                assert math.isinf(got_d)
            else:
                assert abs(got_d - want_d) <= 1e-9 * max(1.0, want_d)
    # Some rows stopped short, so the pair queries reran their searches.
    assert partial_rows > 0


def segment_graph(rng, kind):
    """Random segments and out-edges of a route table: 5 to 40 segments
    whose lengths are floats, small integers {1, 2, 3} (many equal-cost
    ties) or {0, 1, 2} (zero-length plateaus). Some segments have no
    out-edges; an edge may loop back onto its own segment or repeat another."""
    n = int(rng.integers(5, 41))
    ids = [f"g{i:02d}" for i in range(n)]
    lengths = {
        "float": rng.uniform(0.0, 100.0, n),
        "ties": rng.integers(1, 4, n).astype(float),
        "flat": rng.integers(0, 3, n).astype(float),
    }[kind]
    segments = {g: Segment(g, ((0.0, 0.0), (0.0, 0.0)), float(m), (0.0, float(m)))
                for g, m in zip(ids, lengths)}
    out = {g: tuple(ids[j] for j in rng.integers(0, n, int(rng.integers(1, 4))))
           for g in ids if rng.random() < 0.8}
    return segments, out


def random_targets(rng, table):
    """Sorted distinct targets for every origin, some holding the origin.
    Returns the grouped (origin, target) code pairs."""
    n = len(table.ids)
    groups = [np.unique(rng.integers(0, n, int(rng.integers(1, 6)))) for _ in range(n)]
    for o, group in enumerate(groups):
        if rng.random() < 0.3:
            groups[o] = np.union1d(group, [o])
    origin = np.repeat(np.arange(n), [len(g) for g in groups])
    return origin, np.concatenate(groups)


def oracle_routes(table, origin):
    """The heap Dijkstra's distance and predecessor of every segment the
    origin reaches."""
    settled, _ = dijkstra_settle(table, origin, np.arange(len(table.ids)))
    return {v: (d, prev) for d, v, prev in settled}


def oracle_chain(routes, target):
    out = [target]
    while routes[out[-1]][1] >= 0:
        out.append(routes[out[-1]][1])
    return out[::-1]


def late_plateau():
    """Origin o reaches t at 2 both over u (length 2) and over a, b and the
    zero-length c, which is reached later, with t's bound already 2. c pops
    before t, so the heap Dijkstra routes t through c, not u."""
    lengths = {"a": 1.0, "b": 1.0, "c": 0.0, "o": 1.0, "t": 1.0, "u": 2.0}
    out = {"o": ("u", "a"), "a": ("b",), "b": ("c",), "c": ("t",), "u": ("t",)}
    return {g: Segment(g, (), m, ()) for g, m in lengths.items()}, out


@pytest.mark.parametrize("kind", ["float", "ties", "flat"])
def test_route_table_equals_the_heap_dijkstra_bit_for_bit(kind):
    """Rows filled all at once, one origin at a time, or after an earlier run
    on the same table give every target the heap Dijkstra's distance, bit for
    bit, and every route its predecessor walk."""
    rng = np.random.default_rng({"float": 71, "ties": 73, "flat": 79}[kind])
    cases = []
    for trial in range(12):
        graph = segment_graph(rng, kind)
        table = route_table(*graph)
        cases.append((graph, random_targets(rng, table), random_targets(rng, table)))
    if kind == "flat":  # codes a 0, b 1, c 2, o 3, t 4, u 5
        cases.append((late_plateau(), (np.array([3]), np.array([4])),
                       (np.array([3]), np.array([5]))))
    seen = {"unreachable": 0, "loops": 0, "reruns": 0, "dead_ends": 0}
    for graph, (origin, target), earlier in cases:
        table = route_table(*graph)
        n = len(table.ids)
        want = {o: oracle_routes(table, o) for o in range(n)}
        expect = np.array([want[o].get(t, (math.inf,))[0]
                           for o, t in zip(origin.tolist(), target.tolist())])
        at_once = route_table(*graph)
        got = {"at_once": (at_once, at_once.start_distances(origin, target))}
        alone = route_table(*graph)
        got["alone"] = (alone, np.concatenate([
            alone.start_distances(origin[origin == o], target[origin == o])
            for o in _distinct(origin).tolist()
        ]))
        later = route_table(*graph)
        later.start_distances(*earlier)
        seen["reruns"] += sum(
            not later.rows[o].complete
            and not np.isin(target[origin == o], later.rows[o].segment).all()
            for o in _distinct(origin).tolist()
        )
        got["later"] = (later, later.start_distances(origin, target))
        for name, (filled, dist) in got.items():
            assert dist.tobytes() == expect.tobytes(), name
            for o, t in zip(origin.tolist(), target.tolist()):
                if t in want[o]:
                    assert filled.chain(o, t) == oracle_chain(want[o], t), (name, o, t)
        seen["unreachable"] += int(np.isinf(expect).sum())
        seen["loops"] += int(np.isfinite(expect[origin == target]).sum())
        seen["dead_ends"] += int((np.diff(table.out_ptr) == 0).sum())
    assert min(seen.values()) > 0, seen
    if kind == "flat":
        assert at_once.chain(3, 4) == [0, 1, 2, 4]


def test_blocks_of_few_origins_route_as_one_block(monkeypatch):
    """With ``_ROUTE_CELLS`` below the segment count a settle block holds one
    origin, and with three times the count three; a run matches as with one
    block, and the table it filled answers shortest_route as a fresh one."""
    rng = np.random.default_rng(83)
    for trial in range(8):
        network = random_network(rng, int(rng.integers(6, 16)), 0.15)
        params = MatchParams(radius_m=200.0, max_candidates=int(rng.integers(1, 6)))
        _, points, ptr = random_run(rng, network, params)
        whole = viterbi_match(fresh_table(network), points, params, ptr)
        cands = [Candidate(g, 0.0, 0.0, 0.0, float(rng.uniform(0, m)))
                 for g, m in network.segment_lengths().items()]
        routes = [shortest_route(fresh_table(network), a, b) for a in cands for b in cands]
        n = len(network.routes.ids)
        for per_block, cells in ((1, n - 1), (3, 3 * n)):
            monkeypatch.setattr(mapmatch, "_ROUTE_CELLS", cells)
            blocks = []
            real = mapmatch._RouteTable._settle_block

            def counting(self, origins, tptr, targets):
                blocks.append(len(origins))
                return real(self, origins, tptr, targets)

            monkeypatch.setattr(mapmatch._RouteTable, "_settle_block", counting)
            table = fresh_table(network)
            assert viterbi_match(table, points, params, ptr) == whole
            assert max(blocks) == per_block and len(blocks) > 1
            assert [shortest_route(table, a, b) for a in cands for b in cands] == routes
            monkeypatch.undo()


def test_equal_cost_routes_break_ties_by_segment_id_not_insertion_order():
    """Twin lanes make every detour an equal-cost tie. Segment ids inserted
    in shuffled order still route, and match, as the string-keyed per-call
    reference does: through the twin whose id sorts first."""
    rng = np.random.default_rng(43)
    names = [f"{c}{n}" for c in "zqmeb" for n in (7, 10, 3)]
    for trial in range(6):
        rng.shuffle(names)
        geos, rels, pts = [], [], []
        lane = iter(names)
        for k in range(4):
            x = 0.01 * k
            road, twin_1, twin_2 = next(lane), next(lane), next(lane)
            geos.append(line(road, (x, 0.0), (x + 0.004, 0.0)))
            for twin in (twin_1, twin_2):  # same polyline, so the same length
                geos.append(line(twin, (x + 0.004, 0.0), (x + 0.01, 0.0)))
                rels += [rel(f"r{len(rels)}", road, twin)]
                if k < 3:
                    rels += [rel(f"r{len(rels) + 1}", twin, names[3 * (k + 1)])]
            pts += [(x + 0.001, 0.00005), (x + 0.003, -0.00005)]
        network = build_road_network([geos[i] for i in rng.permutation(len(geos))],
                                     [rels[i] for i in rng.permutation(len(rels))])
        params = MatchParams(sigma_m=10.0, beta_m=20.0, radius_m=60.0)
        got = viterbi_match(network, pts, params)
        matched, chains, routes, logprob, _ = _reference_match(network, pts, params)
        assert got.matched == matched
        assert got.chains == chains == [(0, len(pts))]
        assert got.routes == routes
        for g, w in zip(got.point_logprob, logprob):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))
        for k in range(3):
            twins = sorted(names[3 * k + 1: 3 * k + 3])
            assert twins[0] in got.routes[0] and twins[1] not in got.routes[0]


def test_dead_end_origin_has_an_empty_row_and_reaches_nothing():
    """A segment with no out-edges settles nothing: its row holds only the
    sentinel, is complete, and every other target is unreachable."""
    net = build_road_network(
        [line("A", (0.0, 0.0), (0.001, 0.0)), line("B", (0.001, 0.0), (0.002, 0.0))],
        [rel("r0", "B", "A")],
    )
    a = Candidate("A", 0.0005, 0.0, 0.0, 40.0)
    assert shortest_route(net, a, Candidate("B", 0.0015, 0.0, 0.0, 10.0)) == (
        math.inf, None
    )
    assert shortest_route(net, a, Candidate("A", 0.0001, 0.0, 0.0, 5.0)) == (
        math.inf, None
    )
    assert shortest_route(net, a, Candidate("A", 0.0008, 0.0, 0.0, 90.0)) == (
        50.0, ["A"]
    )
    table = net.routes
    row = table.rows[table.code["A"]]
    assert row.complete
    assert row.segment.tolist() == [len(table.ids)]  # the sentinel alone
    assert np.isinf(route_matrix(net, [a], [Candidate("B", 0, 0, 0, 1.0)])).all()


def test_route_table_codes_widen_past_int16():
    """A chain of 33,000 one-meter segments needs 32-bit segment codes; the
    far end is routed exactly, through every segment in between."""
    n = 33_000
    ids = [f"s{i:05d}" for i in range(n)]
    network = road_network(
        {g: Segment(g, ((0.0, 0.0), (0.0, 0.0)), 1.0, (0.0, 1.0)) for g in ids},
        {g: (h,) for g, h in zip(ids, ids[1:])},
    )
    assert network.routes.dtype == np.int32
    d, route = shortest_route(
        network, Candidate(ids[0], 0, 0, 0, 0.25), Candidate(ids[-1], 0, 0, 0, 0.5)
    )
    assert d == 0.75 + (n - 2) + 0.5
    assert route == ids


def test_zero_length_segment_ties_keep_the_first_hop():
    """A zero-length segment u makes a first hop to v tie with the hop via u
    on (cost, segment); routing and matching still finish, on the first hop."""
    geos = [
        line("a", (0.0, 0.0), (0.001, 0.0)),
        line("u", (0.001, 0.0), (0.001, 0.0)),
        line("v", (0.001, 0.0), (0.002, 0.0)),
    ]
    net = build_road_network(geos, [rel("r0", "a", "u"), rel("r1", "a", "v"),
                                    rel("r2", "u", "v")])
    assert net.segment_lengths()["u"] == 0.0
    a = Candidate("a", 0.0005, 0.0, 0.0, 40.0)
    leave = net.segment_lengths()["a"] - 40.0
    assert shortest_route(net, a, Candidate("v", 0.0015, 0.0, 0.0, 25.0)) == (
        leave + 25.0, ["a", "v"]
    )
    assert shortest_route(net, a, Candidate("u", 0.001, 0.0, 0.0, 0.0)) == (
        leave, ["a", "u"]
    )
    result = viterbi_match(net, [(0.0005, 0.0), (0.0015, 0.0)], MatchParams())
    assert [m.segment_id for m in result.matched] == ["a", "v"]
    assert result.routes == [["a", "v"]]
    assert result.breaks == []
    assert all(math.isfinite(lp) for lp in result.point_logprob)
