"""Shared test builders: random atomic tables, a clean dataset, a fault catalog,
the object road network that the network arrays are held to, the street
grid's relation scan that the generator is held to, the scalar map-matching
candidate search that the matcher tests use as their oracle, the per-point
trajectory objects that the trajectory tests use as theirs, the per-value
number rules that ``Table.numbers`` is held to, the per-origin heap
Dijkstra that the route table is held to, the csv.writer table writer
that ``write_table`` is held to, the whole-split forecast that the runner's
batch-at-a-time one is held to, the record-built synthetic generators
that the column-built ones are held to, and the per-row raw CSV converter
that ``convert_raw_csv`` is held to.

The random generators only emit canonical property values (values that the
CSV typing rules can represent), so parse(write(x)) == x is a fair check.
String properties must not look like ints or finite floats, floats must be
finite, and empty strings are excluded (they read back as None).
"""

import copy
import csv
import functools
import heapq
import io
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace
from typing import Mapping, Sequence, Union

import numpy as np

from stkit.atomic import (
    _ATTRS,
    _MISSING,
    MANDATORY_COLUMNS,
    TABLE_KINDS,
    DynaRecord,
    ExtRecord,
    GeoUnit,
    GridODRecord,
    GridRecord,
    ODRecord,
    RelationRecord,
    Scalar,
    Table,
    UserUnit,
    _coerce_scalar,
    _csv_rows,
    _format_coordinates,
    _parse_id_cell,
    _read_text,
    _scalar_to_cell,
    as_table,
    format_timestamp,
    parse_timestamp,
)
from stkit.dataset import AtomicDataset, Manifest, RawConversionSpec
from stkit.exceptions import (
    BadConfigFile,
    BadCoordinate,
    BadTimestamp,
    MissingColumn,
    RaggedRow,
    UnmappedMandatoryColumn,
)
from stkit.mapmatch import Candidate, RoadNetwork, _RouteTable, haversine_m
from stkit.pipeline import SplitSpec, TrajWindowSpec, _split_ranges
from stkit.synthetic import SyntheticResult

T0 = datetime(2021, 3, 1, tzinfo=timezone.utc)

# Strings safe against numeric coercion: none of these parse as int or float.
SAFE_STRINGS = (
    "bus",
    "a,b",
    'say "hi"',
    "x y z",
    "nan",
    "inf",
    "-Infinity",
    "7.5.2",
    "line\nbreak",
    "trailing space ",
    "ünïcödé",
    "NULL",
    "0x1f",
    "1e",
)

TABLE_GENERATOR_KINDS = (
    "geo",
    "usr",
    "rel",
    "dyna_state",
    "dyna_trajectory",
    "grid",
    "od",
    "gridod",
    "ext",
)


def ts(slot, interval=300, start=T0):
    """Timestamp of a slot on a uniform grid, whole seconds, UTC."""
    return start + timedelta(seconds=slot * interval)


def random_scalar(rng):
    pick = rng.random()
    if pick < 0.15:
        return None
    if pick < 0.45:
        return int(rng.integers(-(10**9), 10**9))
    if pick < 0.75:
        mantissa = float(rng.normal())
        exponent = int(rng.integers(-6, 9))
        return mantissa * 10.0**exponent
    return SAFE_STRINGS[int(rng.integers(len(SAFE_STRINGS)))]


def random_properties(rng, names):
    return {name: random_scalar(rng) for name in names}


def random_property_names(rng, max_columns=4):
    return tuple(f"p{i}" for i in range(int(rng.integers(0, max_columns + 1))))


def _random_lonlat(rng):
    return (
        float(rng.uniform(-179.9, 179.9)),
        float(rng.uniform(-89.9, 89.9)),
    )


def random_geo_records(rng, n, prop_names):
    records = []
    for i in range(n):
        geo_type = ("Point", "LineString", "Polygon")[int(rng.integers(3))]
        if geo_type == "Point":
            coords = (_random_lonlat(rng),)
        elif geo_type == "LineString":
            coords = tuple(_random_lonlat(rng) for _ in range(int(rng.integers(2, 8))))
        else:
            ring = [_random_lonlat(rng) for _ in range(int(rng.integers(3, 7)))]
            coords = tuple(ring + [ring[0]])
        records.append(
            GeoUnit(f"g{i}", geo_type, coords, random_properties(rng, prop_names))
        )
    return records


def random_usr_records(rng, n, prop_names):
    return [
        UserUnit(f"u{i}", random_properties(rng, prop_names)) for i in range(n)
    ]


def random_rel_records(rng, n, prop_names):
    records = []
    for i in range(n):
        rel_type = ("geo", "usr", "usr2geo")[int(rng.integers(3))]
        records.append(
            RelationRecord(
                f"r{i}",
                rel_type,
                f"e{rng.integers(20)}",
                f"e{rng.integers(20)}",
                random_properties(rng, prop_names),
            )
        )
    return records


def random_dyna_records(rng, n, prop_names, dyna_type):
    records = []
    for i in range(n):
        location = None
        if dyna_type == "trajectory" and rng.random() < 0.6:
            location = f"g{rng.integers(10)}"
        records.append(
            DynaRecord(
                f"d{i}",
                dyna_type,
                ts(int(rng.integers(0, 500))),
                f"e{rng.integers(10)}",
                location,
                random_properties(rng, prop_names),
            )
        )
    return records


def random_grid_records(rng, n, prop_names):
    return [
        GridRecord(
            f"d{i}",
            "state",
            ts(int(rng.integers(0, 500))),
            int(rng.integers(0, 8)),
            int(rng.integers(0, 8)),
            random_properties(rng, prop_names),
        )
        for i in range(n)
    ]


def random_od_records(rng, n, prop_names):
    return [
        ODRecord(
            f"d{i}",
            "state",
            ts(int(rng.integers(0, 500))),
            f"g{rng.integers(10)}",
            f"g{rng.integers(10)}",
            random_properties(rng, prop_names),
        )
        for i in range(n)
    ]


def random_gridod_records(rng, n, prop_names):
    return [
        GridODRecord(
            f"d{i}",
            "state",
            ts(int(rng.integers(0, 500))),
            int(rng.integers(0, 6)),
            int(rng.integers(0, 6)),
            int(rng.integers(0, 6)),
            int(rng.integers(0, 6)),
            random_properties(rng, prop_names),
        )
        for i in range(n)
    ]


def random_ext_records(rng, n, prop_names):
    # (ext_id, time) is the identity, so give every row its own slot.
    return [
        ExtRecord(
            f"x{rng.integers(3)}",
            ts(i),
            random_properties(rng, prop_names),
        )
        for i in range(n)
    ]


def random_table(generator_kind, rng):
    """One random well-formed table: returns (suffix kind, records)."""
    prop_names = random_property_names(rng)
    n = int(rng.integers(1, 12))
    if generator_kind == "geo":
        return "geo", random_geo_records(rng, n, prop_names)
    if generator_kind == "usr":
        return "usr", random_usr_records(rng, n, prop_names)
    if generator_kind == "rel":
        return "rel", random_rel_records(rng, n, prop_names)
    if generator_kind == "dyna_state":
        return "dyna", random_dyna_records(rng, n, prop_names, "state")
    if generator_kind == "dyna_trajectory":
        return "dyna", random_dyna_records(rng, n, prop_names, "trajectory")
    if generator_kind == "grid":
        return "grid", random_grid_records(rng, n, prop_names)
    if generator_kind == "od":
        return "od", random_od_records(rng, n, prop_names)
    if generator_kind == "gridod":
        return "gridod", random_gridod_records(rng, n, prop_names)
    if generator_kind == "ext":
        return "ext", random_ext_records(rng, n, prop_names)
    raise ValueError(generator_kind)


def clean_dataset():
    """A small internally consistent dataset touching all eight tables.

    validate_dataset on this must report zero findings; the fault catalog
    below mutates copies of it. Rows the faults target are dedicated, so
    several faults can be injected at once without interfering.
    """
    geo = [
        GeoUnit("g0", "Point", ((116.0, 39.9),), {"kind": "sensor"}),
        GeoUnit("g1", "Point", ((116.1, 39.8),), {"kind": "sensor"}),
        GeoUnit("g2", "LineString", ((116.0, 39.9), (116.1, 39.8)), {"kind": "road"}),
        GeoUnit(
            "g3",
            "Polygon",
            ((116.0, 39.9), (116.1, 39.9), (116.1, 39.8), (116.0, 39.9)),
            {"kind": "zone"},
        ),
        GeoUnit("g4", "Point", ((116.2, 39.7),), {"kind": "sensor"}),
        GeoUnit("g5", "Point", ((116.3, 39.6),), {"kind": "sensor"}),
    ]
    usr = [UserUnit(f"u{i}", {}) for i in range(4)]
    rel = [
        RelationRecord("r0", "geo", "g0", "g1", {"weight": 1.0}),
        RelationRecord("r1", "geo", "g1", "g0", {"weight": 2.0}),
        RelationRecord("r2", "usr", "u0", "u1", {"weight": None}),
        RelationRecord("r3", "usr2geo", "u2", "g2", {"weight": 0.5}),
        RelationRecord("r4", "geo", "g4", "g5", {"weight": 1.5}),
    ]
    dyna = [
        DynaRecord("d0", "state", ts(0), "g0", None, {"flow": 10}),
        DynaRecord("d1", "state", ts(1), "g0", None, {"flow": 12}),
        DynaRecord("d2", "state", ts(0), "g1", None, {"flow": 7}),
        DynaRecord("d3", "trajectory", ts(2), "u0", "g0", {"flow": None}),
        DynaRecord("d4", "trajectory", ts(3), "u0", "g1", {"flow": None}),
        DynaRecord("d5", "trajectory", ts(4), "u1", "g4", {"flow": None}),
        DynaRecord("d6", "state", ts(2), "g4", None, {"flow": 3}),
    ]
    grid = [
        GridRecord("q0", "state", ts(0), 0, 0, {"inflow": 4}),
        GridRecord("q1", "state", ts(0), 1, 1, {"inflow": 6}),
        GridRecord("q2", "state", ts(1), 0, 1, {"inflow": 5}),
    ]
    od = [
        ODRecord("o0", "state", ts(0), "g0", "g1", {"demand": 3}),
        ODRecord("o1", "state", ts(1), "g1", "g4", {"demand": 2}),
    ]
    gridod = [
        GridODRecord("go0", "state", ts(0), 0, 0, 1, 1, {"demand": 1}),
        GridODRecord("go1", "state", ts(1), 1, 0, 0, 1, {"demand": 2}),
    ]
    ext = [
        ExtRecord("w0", ts(0), {"temp": 21.5}),
        ExtRecord("w0", ts(1), {"temp": 22.0}),
        ExtRecord("rain", ts(0), {"temp": 19.0}),
    ]
    manifest = Manifest(
        name="clean",
        interval_seconds=300,
        grid_rows=2,
        grid_cols=2,
        features=("flow",),
    )
    return AtomicDataset(
        manifest=manifest,
        geo=geo,
        usr=usr,
        rel=rel,
        dyna=dyna,
        grid=grid,
        od=od,
        gridod=gridod,
        ext=ext,
    )


# Fault catalog: name -> (inject(tables), expected (table, message fragment)).
# Every fault produces exactly one error finding; injectors touch disjoint
# rows so any subset can be applied to one clean dataset copy.


def _fault_dup_geo_id(ds):
    ds.geo.append(GeoUnit("g0", "Point", ((116.0, 39.9),), {"kind": "sensor"}))


def _fault_open_polygon(ds):
    ring = list(ds.geo[3].coordinates)
    ring[-1] = (115.0, 39.0)
    ds.geo[3].coordinates = tuple(ring)


def _fault_bad_latitude(ds):
    ds.geo[1].coordinates = ((116.1, 95.0),)


def _fault_unknown_geo_type(ds):
    ds.geo[4].geo_type = "Blob"


def _fault_dup_usr_id(ds):
    ds.usr.append(UserUnit("u0", {}))


def _fault_dup_rel_id(ds):
    ds.rel.append(RelationRecord("r0", "geo", "g0", "g1", {"weight": 1.0}))


def _fault_unknown_rel_type(ds):
    ds.rel[3].rel_type = "geo2geo"


def _fault_dangling_rel_origin(ds):
    ds.rel[0].origin_id = "ghost"


def _fault_dangling_rel_des(ds):
    ds.rel[1].des_id = "ghost"


def _fault_dup_dyna_id(ds):
    ds.dyna.append(DynaRecord("d0", "state", ts(9), "g0", None, {"flow": 1}))


def _fault_unknown_dyna_type(ds):
    ds.dyna[6].dyna_type = "stream"


def _fault_dangling_state_entity(ds):
    ds.dyna[1].entity_id = "ghost"


def _fault_dangling_traj_entity(ds):
    ds.dyna[5].entity_id = "nobody"


def _fault_dangling_traj_location(ds):
    ds.dyna[4].location = "nowhere"


def _fault_grid_out_of_bounds(ds):
    ds.grid[2].row_id = 5


def _fault_dup_grid_id(ds):
    ds.grid.append(GridRecord("q0", "state", ts(9), 0, 0, {"inflow": 1}))


def _fault_dangling_od_origin(ds):
    ds.od[1].origin_id = "ghost"


def _fault_dup_od_id(ds):
    ds.od.append(ODRecord("o0", "state", ts(9), "g0", "g1", {"demand": 1}))


def _fault_gridod_out_of_bounds(ds):
    ds.gridod[1].des_col_id = 7


def _fault_dup_ext_key(ds):
    ds.ext.append(ExtRecord("w0", ts(0), {"temp": 30.0}))


FAULTS = {
    "dup_geo_id": (_fault_dup_geo_id, ("geo", "duplicate geo_id")),
    "open_polygon": (_fault_open_polygon, ("geo", "must close")),
    "bad_latitude": (_fault_bad_latitude, ("geo", "latitude")),
    "unknown_geo_type": (_fault_unknown_geo_type, ("geo", "unknown geo type")),
    "dup_usr_id": (_fault_dup_usr_id, ("usr", "duplicate usr_id")),
    "dup_rel_id": (_fault_dup_rel_id, ("rel", "duplicate rel_id")),
    "unknown_rel_type": (_fault_unknown_rel_type, ("rel", "unknown relation type")),
    "dangling_rel_origin": (
        _fault_dangling_rel_origin,
        ("rel", "origin_id 'ghost'"),
    ),
    "dangling_rel_des": (_fault_dangling_rel_des, ("rel", "des_id 'ghost'")),
    "dup_dyna_id": (_fault_dup_dyna_id, ("dyna", "duplicate dyna_id")),
    "unknown_dyna_type": (_fault_unknown_dyna_type, ("dyna", "unknown dyna type")),
    "dangling_state_entity": (
        _fault_dangling_state_entity,
        ("dyna", "entity_id 'ghost' not in .geo"),
    ),
    "dangling_traj_entity": (
        _fault_dangling_traj_entity,
        ("dyna", "entity_id 'nobody' not in .usr"),
    ),
    "dangling_traj_location": (
        _fault_dangling_traj_location,
        ("dyna", "location 'nowhere' not in .geo"),
    ),
    "grid_out_of_bounds": (_fault_grid_out_of_bounds, ("grid", "outside")),
    "dup_grid_id": (_fault_dup_grid_id, ("grid", "duplicate dyna_id")),
    "dangling_od_origin": (
        _fault_dangling_od_origin,
        ("od", "origin_id 'ghost' not in .geo"),
    ),
    "dup_od_id": (_fault_dup_od_id, ("od", "duplicate dyna_id")),
    "gridod_out_of_bounds": (
        _fault_gridod_out_of_bounds,
        ("gridod", "outside"),
    ),
    "dup_ext_key": (_fault_dup_ext_key, ("ext", "duplicate (ext_id, time)")),
}

# Faults that leave every table parseable; the others break a parse rule.
PARSEABLE_FAULTS = {
    "dangling_rel_origin", "dangling_rel_des", "dangling_state_entity",
    "dangling_traj_entity", "dangling_traj_location", "grid_out_of_bounds",
    "dangling_od_origin", "gridod_out_of_bounds",
}


def inject_faults(ds, names):
    """Apply the named faults to a copy; returns (copy, expected list).

    The injectors change a namespace that holds each table as a list of
    records built afresh from ``ds``; the copy is one AtomicDataset of them.
    """
    tables = SimpleNamespace(
        manifest=copy.deepcopy(ds.manifest),
        **{kind: list(getattr(ds, kind)) for kind in TABLE_KINDS},
    )
    expected = []
    for name in names:
        inject, fingerprint = FAULTS[name]
        inject(tables)
        expected.append(fingerprint)
    return AtomicDataset(**vars(tables)), expected


def seeded_fault_subset(seed):
    """A reproducible nonempty subset of fault names."""
    rng = random.Random(seed)
    k = rng.randint(1, len(FAULTS))
    return rng.sample(sorted(FAULTS), k)


# -- the object road network: one Segment per geo unit, edges as dicts --------------
#
# The network as the matcher once built it, kept as the oracle of the arrays
# build_road_network makes, and the array-to-dict views the oracles read.


@dataclass
class Segment:
    """One directed road segment: polyline plus precomputed leg lengths."""

    geo_id: str
    coords: tuple[tuple[float, float], ...]
    length_m: float
    cum_m: tuple[float, ...]  # cumulative length at each vertex


def object_network(geos, rels):
    """The segments by id and each one's successor ids, in relation order."""
    geo, rel = as_table("geo", geos), as_table("rel", rels)
    segments: dict[str, Segment] = {}
    for gid, coords in zip(geo.field("geo_id").tolist(), geo.field("coordinates").tolist()):
        cum = [0.0]
        for (lon1, lat1), (lon2, lat2) in zip(coords, coords[1:]):
            cum.append(cum[-1] + haversine_m(lon1, lat1, lon2, lat2))
        segments[gid] = Segment(gid, coords, cum[-1], tuple(cum))
    adj: dict[str, list[str]] = {gid: [] for gid in segments}
    edges = zip(*(rel.field(a).tolist() for a in ("rel_type", "origin_id", "des_id")))
    for rel_type, origin, dest in edges:
        if rel_type == "geo":
            adj[origin].append(dest)
    return segments, {gid: tuple(v) for gid, v in adj.items()}


def route_arrays(segments, out_edges) -> dict:
    """The route table's graph arrays from segments and out-edge dicts."""
    ids = sorted(segments)
    code = {gid: n for n, gid in enumerate(ids)}
    succ = [tuple(code[w] for w in out_edges.get(gid, ())) for gid in ids]
    degree = np.array([len(out) for out in succ], dtype=np.intp)
    out_to = np.array([w for out in succ for w in out], dtype=np.intp)
    order = np.argsort(out_to, kind="stable")
    return {
        "ids": ids,
        "code": code,
        "lengths": np.array([segments[gid].length_m for gid in ids], np.float64),
        "out_ptr": np.concatenate([[0], degree.cumsum()]),
        "out_to": out_to,
        "in_ptr": np.searchsorted(out_to[order], np.arange(len(ids) + 1)),
        "in_from": np.repeat(np.arange(len(ids)), degree)[order],
    }


def network_arrays(segments, out_edges) -> dict:
    """:func:`route_arrays` plus the segment boxes, legs and first legs."""
    arrays = route_arrays(segments, out_edges)
    segs = [segments[g] for g in arrays["ids"]]
    boxes = [(min(x), min(y), max(x), max(y)) for x, y in (zip(*s.coords) for s in segs)]
    legs = [
        (*a, *b, m, n - m)
        for s in segs
        for a, b, m, n in zip(s.coords, s.coords[1:], s.cum_m, s.cum_m[1:])
    ]
    return {
        **arrays,
        "boxes": np.array(boxes, dtype=np.float64).reshape(-1, 4).T.copy(),
        "legs": np.array(legs, dtype=np.float64).reshape(-1, 6).T.copy(),
        "first_leg": np.cumsum([0] + [len(s.coords) - 1 for s in segs]),
    }


def route_table(segments, out_edges) -> _RouteTable:
    """A fresh route table over segments and out-edge dicts."""
    return _RouteTable(**route_arrays(segments, out_edges))


def road_network(segments, out_edges) -> RoadNetwork:
    """A network over segments and out-edge dicts, from :func:`network_arrays`."""
    arrays = network_arrays(segments, out_edges)
    geometry = [arrays.pop(name) for name in ("boxes", "legs", "first_leg")]
    return RoadNetwork(_RouteTable(**arrays), *geometry)


def successors(network) -> dict[str, tuple[str, ...]]:
    """Each segment's successor ids, in relation order, read from the network."""
    t, ptr = network.routes, network.routes.out_ptr.tolist()
    return {g: tuple(t.ids[w] for w in t.out_to[a:b].tolist())
            for g, a, b in zip(t.ids, ptr, ptr[1:])}


def polyline(network, gid) -> Segment:
    """Segment ``gid`` of the network, read back from its legs."""
    c = network.routes.code[gid]
    x0, y0, x1, y1, cum, _ = network.legs[:, network.first_leg[c] : network.first_leg[c + 1]].tolist()
    length = float(network.routes.lengths[c])
    return Segment(gid, tuple(zip(x0 + x1[-1:], y0 + y1[-1:])), length, (*cum, length))


# -- the quadratic street-grid relation scan ----------------------------------------
#
# How the synthetic generator once found each segment's successors, kept as
# the oracle of its node index.


def scan_relations(geo, allow_uturn):
    """A synthetic street grid's relations, found by scanning every segment
    for the successors of each: the generator's quadratic loop, with segment
    ends keyed by coordinates instead of grid nodes."""
    starts = {g.geo_id: g.coordinates[0] for g in geo}
    ends = {g.geo_id: g.coordinates[-1] for g in geo}
    rel = []
    k = 0
    for gid, end_node in ends.items():
        for hid, start_node in starts.items():
            if start_node != end_node:
                continue
            if not allow_uturn and starts[gid] == ends[hid] and gid != hid:
                continue  # hid retraces gid backwards
            rel.append(RelationRecord(f"r{k}", "geo", gid, hid, {}))
            k += 1
    return rel


# -- the scalar candidate search: one point, one segment, one leg at a time ---------

_M_PER_DEG_LAT = 6371000.0 * math.pi / 180.0


def _m_per_deg_lon(lat):
    return _M_PER_DEG_LAT * max(math.cos(math.radians(lat)), 1e-12)


def project_to_segment(seg, lon, lat):
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


def scalar_candidates(network, lon, lat, params):
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
        plon, plat, d, offset = project_to_segment(polyline(network, gid), lon, lat)
        if d <= params.radius_m:
            out.append(Candidate(gid, plon, plat, d, offset))
    out.sort(key=lambda c: (c.distance_m, c.segment_id))
    return out[: params.max_candidates]


# -- the object trajectories: one TrajPoint per row, one Trajectory per piece ------
#
# The per-point versions of trajectory building, cutting, filtering and the
# per-user split, kept as the oracle of the range versions in stkit.


@dataclass(frozen=True)
class TrajPoint:
    """One visit: optional location id, timestamp, extra properties."""

    location: str | None
    time: datetime
    properties: Mapping = field(default_factory=dict)


@dataclass
class Trajectory:
    """Time-ordered visit sequence of one moving entity."""

    user_id: str
    points: list[TrajPoint]

    def __len__(self):
        return len(self.points)


def build_trajectories(records: Table | Sequence[DynaRecord]) -> list[Trajectory]:
    """Group trajectory rows by entity and sort each group by time.

    The sort is stable, so rows sharing a timestamp keep file order. Output
    trajectories appear in order of each entity's first row. Points are read
    from the columns; no record is built.
    """
    table = as_table("dyna", records)
    types = table.field("dyna_type")
    if (bad := types.flags(lambda v: v != "trajectory")).any():
        raise ValueError(f"expected trajectory rows, got {types.at(int(np.argmax(bad)))!r}")
    entities, times, locations = (table.field(a).tolist() for a in ("entity_id", "time", "location"))
    props = [(name, table.prop(name).tolist()) for name in table.prop_names]
    groups: dict[str, list[int]] = {}
    for row, entity in enumerate(entities):
        groups.setdefault(entity, []).append(row)
    out = []
    for entity, rows in groups.items():
        rows.sort(key=times.__getitem__)
        points = [
            TrajPoint(locations[r], times[r], {k: c[r] for k, c in props if c[r] is not _MISSING})
            for r in rows
        ]
        out.append(Trajectory(entity, points))
    return out


def cut_trajectory(traj: Trajectory, spec: TrajWindowSpec) -> list[Trajectory]:
    """Cut one trajectory into sub-trajectories; concatenation reproduces it."""
    if not traj.points:
        return []
    pieces: list[list] = [[traj.points[0]]]
    for p in traj.points[1:]:
        if spec.mode == "time":
            window_start = pieces[-1][0].time
            if (p.time - window_start).total_seconds() > spec.size:
                pieces.append([p])
                continue
        else:
            if len(pieces[-1]) >= spec.size:
                pieces.append([p])
                continue
        pieces[-1].append(p)
    return [Trajectory(traj.user_id, piece) for piece in pieces]


def filter_trajectories(
    trajectories: Sequence[Trajectory],
    min_points: int = 0,
    min_trajs_per_user: int = 0,
    min_visits_per_location: int = 0,
) -> list[Trajectory]:
    """Jointly filter sparse trajectories, users, and locations to a fixed point.

    Dropping a location can sink a trajectory below min_points, which can
    sink a user below min_trajs_per_user, which can sink another location, so
    the three filters iterate until nothing changes. The result is idempotent:
    filtering it again with the same thresholds returns it unchanged.
    Location counting ignores points whose location is None. A trajectory
    needs at least one point, whatever ``min_points`` is.
    """
    trajs = list(trajectories)
    while True:
        kept = [t for t in trajs if len(t.points) >= max(min_points, 1)]
        if min_trajs_per_user > 0:
            per_user: dict[str, int] = {}
            for t in kept:
                per_user[t.user_id] = per_user.get(t.user_id, 0) + 1
            kept = [t for t in kept if per_user[t.user_id] >= min_trajs_per_user]
        if min_visits_per_location > 0:
            visits: dict[str, int] = {}
            for t in kept:
                for p in t.points:
                    if p.location is not None:
                        visits[p.location] = visits.get(p.location, 0) + 1
            trimmed = []
            for t in kept:
                points = [
                    p
                    for p in t.points
                    if p.location is None
                    or visits[p.location] >= min_visits_per_location
                ]
                trimmed.append(
                    t if len(points) == len(t.points) else Trajectory(t.user_id, points)
                )
            kept = trimmed
        if len(kept) == len(trajs) and all(
            a is b or a.points == b.points for a, b in zip(kept, trajs)
        ):
            return kept
        trajs = kept


def split_per_user(
    trajectories: Sequence[Trajectory], spec: SplitSpec
) -> dict[str, list[Trajectory]]:
    """Split each user's trajectories chronologically by the given ratios.

    Trajectories are ordered by first-point time per user and split by the
    rule of :func:`split_chronological`. Users with too few trajectories to
    fill a segment simply leave it empty instead of erroring, since sparse
    users are routine after filtering.
    """
    by_user: dict[str, list[Trajectory]] = {}
    for t in trajectories:
        by_user.setdefault(t.user_id, []).append(t)
    out: dict[str, list[Trajectory]] = {"train": [], "val": [], "test": []}
    for trajs in by_user.values():
        trajs = sorted(trajs, key=lambda t: (len(t.points) == 0, t.points[0].time if t.points else 0))
        for segment, seg in zip(out.values(), _split_ranges(len(trajs), spec)):
            segment.extend(trajs[seg.start : seg.stop])
    return out


# -- the per-value number rules: one feature value, one lon or lat value -----------
#
# The rules a feature cell and a trajectory coordinate were converted by, one
# value at a time, kept as the oracle of Table.numbers.


def feature_number(value) -> float | None:
    """A typed property value as a tensor value; None when unobserved.

    Raises ValueError for a value that is not a number and OverflowError for
    an int beyond float range.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    raise ValueError(value)


def coordinate_fault(value) -> str | None:
    """What keeps a trajectory lon or lat value from being a coordinate."""
    if value is None or value is _MISSING:
        return "is missing"
    if not isinstance(value, (int, float)):
        return f"has non-numeric value {value!r}"
    try:
        float(value)
    except OverflowError:
        return f"has value {value!r} too large for a float"
    return None


# -- the per-origin heap Dijkstra ----------------------------------------------
#
# The search each route-table row was settled by, one origin at a time, kept
# as the oracle of _RouteTable.settle and _RouteTable.chain.


def dijkstra_settle(table, origin: int, targets: np.ndarray):
    """Dijkstra from the end of ``origin`` until ``targets`` are settled:
    the settled ``(dist, segment, prev)`` heap entries, in settle order, and
    whether the search ran out of segments."""
    lengths, ptr = table.lengths.tolist(), table.out_ptr.tolist()
    succ = [table.out_to[a:b].tolist() for a, b in zip(ptr, ptr[1:])]
    heappop, heappush = heapq.heappop, heapq.heappush
    done = bytearray(len(table.ids))
    wanted = bytearray(len(table.ids))
    for t in targets.tolist():
        wanted[t] = 1
    pending = wanted.count(1)
    settled = []
    heap = [(0.0, w, -1) for w in succ[origin]]
    heapq.heapify(heap)
    while heap:
        entry = heappop(heap)
        v = entry[1]
        if done[v]:
            continue
        done[v] = 1
        settled.append(entry)
        if wanted[v]:
            pending -= 1
            if not pending:
                return settled, False
        dv = entry[0] + lengths[v]
        for w in succ[v]:
            if not done[w]:
                heappush(heap, (dv, w, v))
    return settled, True


# -- the csv.writer table writer ------------------------------------------------
#
# How write_table once wrote a table: each record's cells through csv.writer.
# Kept as the oracle of the column writer, with one deliberate difference:
# csv.writer with "\n" line ends leaves a cell holding a bare "\r" unquoted
# (Python 3.10 to 3.12; 3.13 quotes it), and csv.reader then ends the row
# there. Each row is written with "\r\n" line ends, which quote such a cell
# on every version, and ended by "\n".


def csv_writer_table(kind: str, records) -> bytes:
    """write_table's bytes, one record at a time through csv.writer."""
    table = as_table(kind, records)
    records = list(table)
    header, attrs = list(MANDATORY_COLUMNS[kind]), _ATTRS[kind]
    if kind == "dyna":
        if any(r.location is not None for r in records):
            header.append("location")
        else:
            attrs = attrs[:-1]
    header.extend(table.prop_names)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []
    stamp = functools.cache(format_timestamp)
    for row in [header, *records]:
        if not isinstance(row, list):
            cells = [getattr(row, a) for a in attrs]
            if "time" in attrs:
                cells[attrs.index("time")] = stamp(row.time)
            if kind == "geo":
                cells[2] = _format_coordinates(row.geo_type, row.coordinates)
            row = cells + [_scalar_to_cell(row.properties[p]) for p in table.prop_names]
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n"))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def whole_split_forecast(model, batches):
    """How the runner once forecast a split: every batch gathered first, then
    the predictions, truths and masks each stacked by one concatenation."""
    preds, ys, masks = [], [], []
    for batch in batches:
        preds.append(model.predict(batch))
        ys.append(batch["y"])
        masks.append(batch["y_mask"])
    return np.concatenate(preds), np.concatenate(ys), np.concatenate(masks)


# -- the record-built synthetic generators ------------------------------------------
#
# stkit.synthetic as it once built every table: one record object per row, in
# draw order. Kept verbatim as the oracle of the column-built generators.

_T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def record_synthetic(kind: str, params: Mapping | None = None, seed: int = 0) -> SyntheticResult:
    """The record-built dataset of ``generate_synthetic(kind, params, seed)``."""
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


# -- the per-row raw CSV converter ----------------------------------------------------
#
# stkit.dataset.convert_raw_csv as it once was: csv.reader's rows, each checked
# in a Python loop and built into one DynaRecord, then GeoUnits and UserUnits.
# Kept as the oracle of the column-built converter. Deliberate differences: the
# number rule of coordinate cells (ASCII digits only there); and two header
# rules added to both, that a mapped column the raw header repeats is refused,
# and that a state target setting both lat_column and lon_column maps them.


def _parse_raw_time(cell: str, spec: RawConversionSpec):
    from datetime import datetime, timezone

    if spec.time_format is None:
        return parse_timestamp(cell)
    dt = datetime.strptime(cell, spec.time_format)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _degrees(cell: str, limit: float) -> float:
    """A raw coordinate cell as a float within [-limit, limit]."""
    value = float(cell)
    if not -limit <= value <= limit:  # NaN too
        raise ValueError(f"coordinate {value} outside [-{limit:g}, {limit:g}]")
    return value


def record_convert_raw_csv(spec: RawConversionSpec, source: Union[bytes, str]) -> AtomicDataset:
    """Convert one flat CSV into an AtomicDataset under the given mapping.

    Raises UnmappedMandatoryColumn when a mapped column is missing from the
    raw header, MissingColumn when the raw header repeats one, and a
    ParseError located at the raw row and column for a
    ragged row, a bad time cell or one outside the years 1 to 9999 in UTC,
    an empty entity cell, a coordinate that is not a number in range or a
    byte that is not UTF-8. Blank lines are skipped. The output passes
    :func:`validate_dataset` with zero errors.
    """
    if spec.target not in ("state", "trajectory"):
        raise BadConfigFile(
            f"conversion target {spec.target!r} is not 'state' or 'trajectory'"
        )
    rows = _csv_rows(_read_text(source, "raw"), "raw")
    if not rows:
        raise UnmappedMandatoryColumn("raw CSV has no header row")
    header = rows[0]
    col_index = {name: i for i, name in enumerate(header)}
    has_point = spec.lat_column is not None and spec.lon_column is not None
    needed = [spec.time_column, spec.entity_column]
    if spec.target == "trajectory" or has_point:
        needed += [spec.lat_column, spec.lon_column]
    needed += list(spec.property_columns)
    for name in needed:
        if name is None:
            raise UnmappedMandatoryColumn(
                "trajectory conversion requires lat_column and lon_column"
            )
        if name not in col_index:
            raise UnmappedMandatoryColumn(f"raw CSV has no column {name!r}")
        if header.count(name) > 1:
            raise MissingColumn(f"column {name!r} is repeated", table="raw", column=name)

    def cell(n: int, row: list[str], column: str, parse, error):
        """``parse`` of data row ``n``'s cell in ``column``; its ValueError
        or OverflowError becomes ``error`` located at that cell."""
        try:
            return parse(row[col_index[column]])
        except (ValueError, OverflowError) as exc:
            raise error(str(exc), table="raw", row=n, column=column) from None

    def point(n: int, row: list[str]) -> tuple[float, float]:
        return (
            cell(n, row, spec.lon_column, lambda c: _degrees(c, 180.0), BadCoordinate),
            cell(n, row, spec.lat_column, lambda c: _degrees(c, 90.0), BadCoordinate),
        )

    dyna: list[DynaRecord] = []
    entity_coord: dict[str, tuple[float, float] | None] = {}  # state target
    point_ids: dict[tuple[float, float], str] = {}  # trajectory target
    for n, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise RaggedRow(
                f"row has {len(row)} cells, header has {len(header)}", table="raw",
                row=n, column=header[len(row)] if len(row) < len(header) else None,
            )
        time = cell(
            n, row, spec.time_column, lambda c: _parse_raw_time(c, spec), BadTimestamp
        )
        entity = _parse_id_cell(row[col_index[spec.entity_column]], "raw", n, spec.entity_column)
        location = None
        if spec.target == "trajectory":
            location = point_ids.setdefault(point(n, row), f"p{len(point_ids)}")
        elif entity not in entity_coord:
            entity_coord[entity] = point(n, row) if has_point else None
        props: dict[str, Scalar] = {
            c: _coerce_scalar(row[col_index[c]]) for c in spec.property_columns
        }
        dyna.append(DynaRecord(f"d{len(dyna)}", spec.target, time, entity, location, props))
    if spec.target == "state":
        geo = [GeoUnit(e, "Point", (c or (0.0, 0.0),), {}) for e, c in entity_coord.items()]
        usr = []
    else:
        geo = [GeoUnit(pid, "Point", (c,), {}) for c, pid in point_ids.items()]
        usr = [UserUnit(u, {}) for u in dict.fromkeys(d.entity_id for d in dyna)]
    manifest = Manifest(name=spec.name, features=tuple(spec.property_columns))
    return AtomicDataset(manifest, geo=geo, usr=usr, dyna=dyna)
