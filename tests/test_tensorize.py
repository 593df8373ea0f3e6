"""Time axis and tensor construction: shapes, masks, inverses."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from conftest import ts
from stkit.atomic import (
    DynaRecord,
    GridRecord,
    ODRecord,
    RelationRecord,
    parse_table,
    read_table,
    write_table,
)
from stkit.exceptions import (
    BadFeatureValue,
    DuplicateCell,
    EmptyTable,
    NegativeWeight,
    NonAlignedTimestamp,
    UnknownEntity,
)
from stkit.tensorize import (
    TimeAxis,
    build_adjacency,
    build_time_axis,
    build_trajectories,
    dyna_to_graph_tensor,
    grid_to_tensor,
    od_to_tensor,
)


def dt(h, m=0, s=0):
    return datetime(2021, 3, 1, h, m, s, tzinfo=timezone.utc)


# -- time axis ---------------------------------------------------------------


def test_axis_spans_min_to_max_inclusive():
    axis = build_time_axis([dt(0, 0), dt(0, 5), dt(0, 15)], 300)
    assert axis.start == dt(0, 0)
    assert axis.length == 4  # 00:00 00:05 00:10 00:15, gaps included
    assert axis.slot_of(dt(0, 15)) == 3
    assert axis.time_of(2) == dt(0, 10)


def test_off_grid_record_rejected():
    with pytest.raises(NonAlignedTimestamp):
        build_time_axis([dt(0, 0), dt(0, 7)], 300)


def test_start_floors_onto_epoch_grid():
    # 00:07 floors to 00:05 on the 300s grid, and is then 120s off it.
    with pytest.raises(NonAlignedTimestamp) as err:
        build_time_axis([dt(0, 7)], 300)
    assert "120s" in str(err.value)


def test_axis_start_need_not_be_midnight():
    axis = build_time_axis([dt(1, 30), dt(2, 0)], 1800)
    assert axis.start == dt(1, 30)
    assert axis.length == 2


def test_interval_not_dividing_day():
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    from datetime import timedelta

    times = [epoch + timedelta(seconds=7 * k) for k in (100, 103)]
    axis = build_time_axis(times, 7)
    assert axis.start == times[0]
    assert axis.length == 4


def test_axis_empty_and_bad_interval():
    with pytest.raises(EmptyTable):
        build_time_axis([], 300)
    with pytest.raises(ValueError):
        build_time_axis([dt(0, 0)], 0)


def test_slot_out_of_range():
    axis = build_time_axis([dt(0, 0), dt(0, 10)], 300)
    with pytest.raises(ValueError):
        axis.slot_of(dt(0, 20))
    with pytest.raises(ValueError):
        axis.slot_of(dt(0, 0) - (dt(0, 10) - dt(0, 5)))


def test_slot_time_inverse():
    axis = build_time_axis([dt(0, 0), dt(3, 0)], 600)
    for slot in range(axis.length):
        assert axis.slot_of(axis.time_of(slot)) == slot


def test_fraction_of_day():
    axis = build_time_axis([dt(0, 0), dt(12, 0)], 1800)
    assert axis.fraction_of_day(0) == 0.0
    assert axis.fraction_of_day(12) == 0.25  # 06:00
    assert axis.fraction_of_day(24) == 0.5


@pytest.mark.parametrize(
    "start, interval",
    [
        (datetime(2021, 3, 1, tzinfo=timezone.utc), 300),
        (datetime(2021, 3, 1, 5, 1, 31, tzinfo=timezone.utc), 7),  # not dividing a day
        (datetime(1969, 12, 31, 23, 59, 53, tzinfo=timezone.utc), 3601),
    ],
)
def test_fraction_of_day_of_a_slot_array_equals_each_slot_bit_for_bit(start, interval):
    axis = TimeAxis(start, interval, 5000)
    slots = np.arange(-40, 5000, dtype=np.int64)
    got = axis.fraction_of_day(slots)
    scalar = [axis.fraction_of_day(int(s)) for s in slots]
    assert all(type(f) is float for f in scalar)
    clock = [axis.time_of(int(s)) for s in slots]  # the definition, via datetimes
    by_clock = [(t.hour * 3600 + t.minute * 60 + t.second) / 86400.0 for t in clock]
    assert got.dtype == np.float64 and got.shape == slots.shape
    assert got.view(np.uint64).tolist() == np.array(scalar).view(np.uint64).tolist()
    assert scalar == by_clock
    assert axis.fraction_of_day(slots.reshape(40, 126)).shape == (40, 126)


# -- graph tensor ------------------------------------------------------------


GEOS = ("g0", "g1")
FEATS = ("flow", "speed")


def graph_records():
    return [
        DynaRecord("d0", "state", ts(0), "g0", None, {"flow": 10, "speed": 55.0}),
        DynaRecord("d1", "state", ts(0), "g1", None, {"flow": 7, "speed": None}),
        DynaRecord("d2", "state", ts(2), "g0", None, {"flow": 12, "speed": 53.0}),
    ]


def test_graph_tensor_values_and_mask():
    axis = build_time_axis([r.time for r in graph_records()], 300)
    tensor, mask = dyna_to_graph_tensor(graph_records(), GEOS, axis, FEATS)
    assert tensor.values.shape == (3, 2, 2)
    assert tensor.values[0, 0, 0] == 10.0
    assert tensor.values[0, 0, 1] == 55.0
    assert tensor.values[0, 1, 0] == 7.0
    # None feature: unobserved, filled with zero.
    assert tensor.values[0, 1, 1] == 0.0
    assert not mask.values[0, 1, 1]
    assert mask.values[0, 1, 0]
    # Slot 1 has no records at all.
    assert not mask.values[1].any()
    assert (tensor.values[1] == 0.0).all()


def test_graph_tensor_order_independent():
    recs = graph_records()
    axis = build_time_axis([r.time for r in recs], 300)
    a, am = dyna_to_graph_tensor(recs, GEOS, axis, FEATS)
    b, bm = dyna_to_graph_tensor(recs[::-1], GEOS, axis, FEATS)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(am.values, bm.values)


def test_graph_tensor_duplicate_cell():
    recs = graph_records() + [
        DynaRecord("d9", "state", ts(0), "g0", None, {"flow": 1, "speed": 1})
    ]
    axis = build_time_axis([r.time for r in recs], 300)
    with pytest.raises(DuplicateCell):
        dyna_to_graph_tensor(recs, GEOS, axis, FEATS)


def test_graph_tensor_unknown_entity():
    recs = graph_records()
    axis = build_time_axis([r.time for r in recs], 300)
    with pytest.raises(UnknownEntity):
        dyna_to_graph_tensor(recs, ("g0",), axis, FEATS)


def test_graph_tensor_rejects_trajectory_rows():
    recs = [DynaRecord("d0", "trajectory", ts(0), "u0", "g0", {"flow": 1})]
    axis = build_time_axis([r.time for r in recs], 300)
    with pytest.raises(ValueError):
        dyna_to_graph_tensor(recs, GEOS, axis, ("flow",))


def test_graph_tensor_missing_feature_column():
    recs = [DynaRecord("d0", "state", ts(0), "g0", None, {"flow": 1})]
    axis = build_time_axis([r.time for r in recs], 300)
    with pytest.raises(ValueError):
        dyna_to_graph_tensor(recs, GEOS, axis, ("occupancy",))


# -- grid tensor -------------------------------------------------------------


def test_grid_tensor_shape_and_bounds():
    recs = [
        GridRecord("q0", "state", ts(0), 0, 0, {"inflow": 4.0}),
        GridRecord("q1", "state", ts(1), 2, 1, {"inflow": 6.0}),
    ]
    axis = build_time_axis([r.time for r in recs], 300)
    tensor, mask = grid_to_tensor(recs, (3, 2), axis, ("inflow",))
    assert tensor.values.shape == (2, 3, 2, 1)
    assert tensor.values[1, 2, 1, 0] == 6.0
    assert mask.values.sum() == 2
    bad = [GridRecord("q9", "state", ts(0), 3, 0, {"inflow": 1.0})]
    with pytest.raises(UnknownEntity):
        grid_to_tensor(bad, (3, 2), axis, ("inflow",))


def test_grid_tensor_duplicate_cell():
    recs = [
        GridRecord("q0", "state", ts(0), 0, 0, {"inflow": 4.0}),
        GridRecord("q1", "state", ts(0), 0, 0, {"inflow": 5.0}),
    ]
    axis = build_time_axis([r.time for r in recs], 300)
    with pytest.raises(DuplicateCell):
        grid_to_tensor(recs, (1, 1), axis, ("inflow",))


# -- od tensor ---------------------------------------------------------------


def test_od_tensor_cells():
    recs = [
        ODRecord("o0", "state", ts(0), "g0", "g1", {"demand": 3.0}),
        ODRecord("o1", "state", ts(0), "g1", "g0", {"demand": 2.0}),
    ]
    axis = build_time_axis([r.time for r in recs], 300)
    tensor, mask = od_to_tensor(recs, GEOS, axis, ("demand",))
    assert tensor.values.shape == (1, 2, 2, 1)
    assert tensor.values[0, 0, 1, 0] == 3.0
    assert tensor.values[0, 1, 0, 0] == 2.0
    assert not mask.values[0, 0, 0, 0]
    with pytest.raises(UnknownEntity):
        od_to_tensor(recs, ("g0",), axis, ("demand",))


# -- rules shared by the dense layouts -----------------------------------------


def dense_case(layout, cells, feats=("a", "b"), values=None):
    """Records at (slot, i, j) cells of one layout plus its tensorize call."""
    recs = []
    for n, (slot, i, j) in enumerate(cells):
        props = dict(zip(feats, values[n] if values else (float(n), None)))
        if layout == "graph":
            recs.append(DynaRecord(f"d{n}", "state", ts(slot), f"g{i}", None, props))
        elif layout == "grid":
            recs.append(GridRecord(f"d{n}", "state", ts(slot), i, j, props))
        else:
            recs.append(ODRecord(f"d{n}", "state", ts(slot), f"g{i}", f"g{j}", props))
    axis = build_time_axis([r.time for r in recs], 300)
    geos = tuple(f"g{k}" for k in range(3))
    if layout == "graph":
        return recs, lambda r: dyna_to_graph_tensor(r, geos, axis, feats)
    if layout == "grid":
        return recs, lambda r: grid_to_tensor(r, (3, 3), axis, feats)
    return recs, lambda r: od_to_tensor(r, geos, axis, feats)


def reference_dense(layout, recs, feats):
    """Per-record loop: the scatter every dense layout must reproduce."""
    axis = build_time_axis([r.time for r in recs], 300)
    geos = {f"g{k}": k for k in range(3)}
    shape = (axis.length, 3) if layout == "graph" else (axis.length, 3, 3)
    values = np.zeros(shape + (len(feats),))
    mask = np.zeros(values.shape, dtype=bool)
    for r in recs:
        if layout == "graph":
            cell = (axis.slot_of(r.time), geos[r.entity_id])
        elif layout == "grid":
            cell = (axis.slot_of(r.time), r.row_id, r.col_id)
        else:
            cell = (axis.slot_of(r.time), geos[r.origin_id], geos[r.des_id])
        for d, name in enumerate(feats):
            if r.properties[name] is not None:
                values[cell + (d,)] = r.properties[name]
                mask[cell + (d,)] = True
    return values, mask


@pytest.mark.parametrize("layout", ["graph", "grid", "od"])
def test_duplicate_cell_names_first_repeat_in_file_order(layout):
    # Record 2 repeats record 0 and record 3 repeats record 1; record 1's
    # cell has the smaller linear index, so only file order names record 2.
    recs, tensorize = dense_case(layout, [(1, 2, 2), (0, 0, 1), (1, 2, 2), (0, 0, 1)])
    with pytest.raises(DuplicateCell) as err:
        tensorize(recs)
    stamp = "2021-03-01T00:05:00Z"
    expected = {
        "graph": f"second record for entity 'g2' at {stamp}",
        "grid": f"second record for cell (2, 2) at {stamp}",
        "od": f"second record for pair ('g2', 'g2') at {stamp}",
    }[layout]
    assert str(err.value) == expected
    # The first offender wins whatever its kind: a repeat before an unknown
    # cell is a DuplicateCell, an unknown cell before a repeat is not.
    recs, tensorize = dense_case(layout, [(0, 0, 0), (0, 0, 0), (1, 9, 9)])
    with pytest.raises(DuplicateCell):
        tensorize(recs)
    recs, tensorize = dense_case(layout, [(0, 0, 0), (1, 9, 9), (0, 0, 0)])
    with pytest.raises(UnknownEntity):
        tensorize(recs)
    # A repeated record that also lacks a feature reports the repeat.
    recs, tensorize = dense_case(layout, [(0, 0, 0), (0, 0, 0)])
    del recs[1].properties["b"]
    with pytest.raises(DuplicateCell):
        tensorize(recs)


@pytest.mark.parametrize("layout", ["graph", "grid", "od"])
def test_unknown_entity_and_off_grid_messages(layout):
    recs, tensorize = dense_case(layout, [(0, 0, 0), (1, 5, 0)])
    with pytest.raises(UnknownEntity) as err:
        tensorize(recs)
    assert str(err.value) == {
        "graph": "entity 'g5' not in the geo ordering",
        "grid": "cell (5, 0) outside grid (3, 3)",
        "od": "entity 'g5' not in the geo ordering",
    }[layout]
    recs, tensorize = dense_case(layout, [(0, 0, 0), (1, 1, 1)])
    recs[1].time += timedelta(seconds=7)
    with pytest.raises(NonAlignedTimestamp) as err:
        tensorize(recs)
    assert str(err.value) == (
        "2021-03-01T00:05:07Z is 7s off the 300s grid anchored at 2021-03-01T00:00:00Z"
    )


@pytest.mark.parametrize("layout", ["graph", "grid", "od"])
def test_scatter_matches_per_record_loop(layout):
    rng = np.random.default_rng(11)
    cells = sorted(
        {(int(s), int(i), int(j)) for s, i, j in rng.integers(0, 3, size=(40, 3))},
        key=lambda c: rng.random(),
    )
    if layout == "graph":
        cells = list({(s, i): (s, i, 0) for s, i, _ in cells}.values())
    values = [
        tuple(None if rng.random() < 0.3 else float(rng.normal()) for _ in "ab")
        for _ in cells
    ]
    values[0] = (-0.0, float("nan"))
    recs, tensorize = dense_case(layout, cells, values=values)
    tensor, mask = tensorize(recs)
    expect_v, expect_m = reference_dense(layout, recs, ("a", "b"))
    assert np.array_equal(tensor.values, expect_v, equal_nan=True)
    assert np.signbit(tensor.values).sum() == np.signbit(expect_v).sum()
    assert np.array_equal(mask.values, expect_m)
    assert mask.values.sum() == sum(v is not None for row in values for v in row)


@pytest.mark.parametrize("layout", ["graph", "grid", "od"])
def test_numpy_float_values_match_per_record_loop(layout):
    # Property values may be numpy floats, as arithmetic on arrays leaves them.
    cells = [(0, 0, 1), (0, 2, 2), (2, 1, 0)]
    values = [(np.float64(1.5), None), (np.float64(-0.0), np.float64(3)), (None, np.float64(7))]
    recs, tensorize = dense_case(layout, cells, values=values)
    tensor, mask = tensorize(recs)
    expect_v, expect_m = reference_dense(layout, recs, ("a", "b"))
    assert tensor.values.tobytes() == expect_v.tobytes()
    assert np.array_equal(mask.values, expect_m)


# -- adjacency ---------------------------------------------------------------


def test_adjacency_weighted():
    rels = [RelationRecord("r0", "geo", "g0", "g1", {"w": 2.0})]
    A = build_adjacency(rels, GEOS, weight_property="w")
    assert A.tolist() == [[0.0, 2.0], [0.0, 0.0]]
    S = build_adjacency(rels, GEOS, weight_property="w", symmetrize=True)
    assert S.tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_adjacency_unweighted_and_default_weight():
    rels = [
        RelationRecord("r0", "geo", "g0", "g1", {"w": 5.0}),
        RelationRecord("r1", "geo", "g1", "g0", {"w": None}),
    ]
    A = build_adjacency(rels, GEOS)
    assert A.tolist() == [[0.0, 1.0], [1.0, 0.0]]  # presence only
    B = build_adjacency(rels, GEOS, weight_property="w")
    assert B.tolist() == [[0.0, 5.0], [1.0, 0.0]]  # None falls back to 1


def test_adjacency_ignores_non_geo_rels():
    rels = [
        RelationRecord("r0", "usr", "u0", "u1", {}),
        RelationRecord("r1", "usr2geo", "u0", "g0", {}),
    ]
    A = build_adjacency(rels, GEOS)
    assert not A.any()


def test_adjacency_errors():
    with pytest.raises(NegativeWeight):
        build_adjacency(
            [RelationRecord("r0", "geo", "g0", "g1", {"w": -1.0})],
            GEOS,
            weight_property="w",
        )
    with pytest.raises(DuplicateCell):
        build_adjacency(
            [
                RelationRecord("r0", "geo", "g0", "g1", {}),
                RelationRecord("r1", "geo", "g0", "g1", {}),
            ],
            GEOS,
        )
    with pytest.raises(UnknownEntity):
        build_adjacency([RelationRecord("r0", "geo", "g0", "gX", {})], GEOS)
    # A weight cell that is text or too large for a float is located at its
    # row and column, whether the rows are records or a read table.
    for value, what in (("nan", "non-numeric value 'nan'"), ("abc", "non-numeric value 'abc'"),
                        (10**400, "too large for a float")):
        rels = [
            RelationRecord("r0", "geo", "g0", "g1", {"w": 2.0}),
            RelationRecord("r1", "usr", "u0", "u1", {"w": "x"}),
            RelationRecord("r2", "geo", "g1", "g0", {"w": value}),
        ]
        for rows in (rels, read_table("rel", write_table("rel", rels))):
            with pytest.raises(BadFeatureValue, match=what) as info:
                build_adjacency(rows, GEOS, weight_property="w")
            assert (info.value.table, info.value.row, info.value.column) == ("rel", 3, "w")
    # A NaN or infinite weight, which only a record list can hold, is
    # located at its row and column too.
    for value in (float("nan"), float("inf"), float("-inf")):
        rels = [
            RelationRecord("r0", "geo", "g0", "g1", {"w": 2.0}),
            RelationRecord("r1", "geo", "g1", "g0", {"w": value}),
        ]
        with pytest.raises(BadFeatureValue, match="non-finite value") as info:
            build_adjacency(rels, GEOS, weight_property="w")
        assert (info.value.table, info.value.row, info.value.column) == ("rel", 2, "w")
    # Empty cells and a missing column stay weight 1, from a read table too.
    empty = [RelationRecord("r0", "geo", "g0", "g1", {"w": None}),
             RelationRecord("r1", "geo", "g1", "g0", {"w": 4.0})]
    absent = [RelationRecord("r0", "geo", "g0", "g1", {"v": 3.0}),
              RelationRecord("r1", "geo", "g1", "g0", {"v": 3.0})]
    for rels, want in ((empty, [[0.0, 1.0], [4.0, 0.0]]), (absent, [[0.0, 1.0], [1.0, 0.0]])):
        for rows in (rels, read_table("rel", write_table("rel", rels))):
            assert build_adjacency(rows, GEOS, weight_property="w").tolist() == want
    with pytest.raises(NegativeWeight):
        negative = [RelationRecord("r0", "geo", "g0", "g1", {"w": -0.5})]
        build_adjacency(read_table("rel", write_table("rel", negative)), GEOS, weight_property="w")


def test_adjacency_self_loops():
    A = build_adjacency([], GEOS, self_loops=True)
    assert A.tolist() == [[1.0, 0.0], [0.0, 1.0]]


# -- trajectories ------------------------------------------------------------


def test_build_trajectories_groups_and_sorts():
    recs = [
        DynaRecord("d0", "trajectory", ts(5), "u1", "g0", {}),
        DynaRecord("d1", "trajectory", ts(1), "u0", "g1", {}),
        DynaRecord("d2", "trajectory", ts(3), "u1", "g2", {}),
        DynaRecord("d3", "trajectory", ts(2), "u0", "g3", {}),
    ]
    trajs = build_trajectories(recs)
    # First-appearance order of entities, points time-sorted within each.
    assert trajs.users == ("u1", "u0")
    assert trajs.ptr.tolist() == [0, 2, 4]
    assert trajs.rows.tolist() == [2, 0, 1, 3]
    assert trajs.values("location") == ["g2", "g0", "g1", "g3"]
    assert len(trajs) == 2


def test_build_trajectories_stable_on_ties():
    recs = [
        DynaRecord("d0", "trajectory", ts(1), "u0", "gA", {}),
        DynaRecord("d1", "trajectory", ts(1), "u0", "gB", {}),
        DynaRecord("d2", "trajectory", ts(0), "u0", "gC", {}),
    ]
    trajs = build_trajectories(recs)
    assert trajs.values("location") == ["gC", "gA", "gB"]


def test_build_trajectories_rejects_state_rows():
    with pytest.raises(ValueError):
        build_trajectories([DynaRecord("d0", "state", ts(0), "g0", None, {})])


def test_trajectory_point_carries_properties():
    recs = [DynaRecord("d0", "trajectory", ts(0), "u0", None, {"lon": 116.0})]
    trajs = build_trajectories(recs)
    assert trajs.table.prop("lon").at(int(trajs.rows[0])) == 116.0
    assert trajs.values("location") == [None]


# -- tables read as columns ----------------------------------------------------


LAYOUT_KINDS = {"graph": "dyna", "grid": "grid", "od": "od"}


def as_read_table(layout, recs):
    """The records written to CSV and read back as a column Table."""
    kind = LAYOUT_KINDS[layout]
    return read_table(kind, write_table(kind, recs))


@pytest.mark.parametrize("layout", ["graph", "grid", "od"])
def test_table_and_record_list_give_bit_equal_tensors(layout):
    cells = [(0, 0, 1), (0, 1, 2), (1, 0, 0), (2, 2, 1), (2, 1, 1), (3, 0, 2)]
    values = [  # -0.0 and 0.0 share a column, so merging equal values shows
        (-0.0, None),
        (1e-300, 2**53 + 1),
        (None, 0.0),
        (7, 0.1),
        (0.0, -0.0),
        (-2.5, 12),
    ]
    recs, tensorize = dense_case(layout, cells, values=values)
    kind = LAYOUT_KINDS[layout]
    text = write_table(kind, recs)
    a, am = tensorize(recs)
    # The columns of a read table, and the record list parsed from the same file.
    for other in (read_table(kind, text), parse_table(kind, text)):
        b, bm = tensorize(other)
        assert a.values.tobytes() == b.values.tobytes()
        assert am.values.tobytes() == bm.values.tobytes()
    assert (np.signbit(b.values) & (b.values == 0)).sum() == 2  # both -0.0 cells


def failure(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("layout", ["graph", "grid", "od"])
def test_table_errors_match_record_lists(layout):
    cases = [
        [(1, 2, 2), (0, 0, 1), (1, 2, 2), (0, 0, 1)],  # DuplicateCell
        [(0, 0, 0), (0, 0, 0), (1, 9, 9)],  # a repeat before an unknown cell
        [(0, 0, 0), (1, 9, 9), (0, 0, 0)],  # an unknown cell before a repeat
        [(0, 0, 0), (1, 5, 0)],  # UnknownEntity
    ]
    seen = set()
    for cells in cases:
        recs, tensorize = dense_case(layout, cells)
        expected = failure(lambda: tensorize(recs))
        assert failure(lambda: tensorize(as_read_table(layout, recs))) == expected
        seen.add(expected[0])
    recs, tensorize = dense_case(layout, [(0, 0, 0), (1, 1, 1)])
    recs[1].time += timedelta(seconds=7)
    expected = failure(lambda: tensorize(recs))
    assert expected[0] is NonAlignedTimestamp
    assert failure(lambda: tensorize(as_read_table(layout, recs))) == expected
    assert seen == {DuplicateCell, UnknownEntity}


@pytest.mark.parametrize("cell, what", [
    ("abc", "non-numeric value 'abc'"),
    ("9" * 400, f"value {'9' * 400} too large for a float"),
], ids=["non_numeric", "overflow"])
def test_bad_feature_cell_is_located(cell, what):
    text = (
        "dyna_id,type,time,entity_id,flow\n"
        "d0,state,2021-03-01T00:00:00Z,g0,1\n"
        "\n"
        f"d1,state,2021-03-01T00:05:00Z,g1,{cell}\n"
    )
    table = read_table("dyna", text)
    axis = build_time_axis([ts(0), ts(1)], 300)
    for rows, row in ((table, 3), (list(table), 2)):
        with pytest.raises(BadFeatureValue) as err:
            dyna_to_graph_tensor(rows, GEOS, axis, ("flow",))
        assert str(err.value) == (
            f"feature 'flow' has {what} (table=dyna, row={row}, column=flow)"
        )
        assert (err.value.table, err.value.row, err.value.column) == ("dyna", row, "flow")
        assert isinstance(err.value, ValueError)


def test_missing_feature_column_message_names_the_record():
    recs = [DynaRecord("d0", "state", ts(0), "g0", None, {"flow": 1})]
    axis = build_time_axis([ts(0)], 300)
    for rows in (recs, read_table("dyna", write_table("dyna", recs))):
        with pytest.raises(ValueError, match="lacks declared feature column 'speed'") as err:
            dyna_to_graph_tensor(rows, GEOS, axis, ("speed",))
        assert repr(recs[0]) in str(err.value)


def test_selected_rows_keep_their_file_row_numbers():
    text = (
        "dyna_id,type,time,entity_id,location,flow\n"
        "t0,trajectory,2021-03-01T00:00:00Z,u0,,x\n"
        "d0,state,2021-03-01T00:00:00Z,g0,,1\n"
        "d1,state,2021-03-01T00:05:00Z,g1,,oops\n"
    )
    table = read_table("dyna", text)
    state = table.field("dyna_type").flags(lambda t: t == "state")
    states = table.select(state)
    assert [r.dyna_id for r in states] == ["d0", "d1"]
    axis = build_time_axis(states.field("time").present(), 300)
    with pytest.raises(BadFeatureValue) as err:
        dyna_to_graph_tensor(states, GEOS, axis, ("flow",))
    assert err.value.row == 3
