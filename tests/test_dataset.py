"""Dataset assembly: validation findings, disk round trips, raw conversion."""

import json
import random
from dataclasses import FrozenInstanceError, replace
from datetime import datetime

import numpy as np
import pytest

from conftest import (
    FAULTS,
    PARSEABLE_FAULTS,
    clean_dataset,
    inject_faults,
    seeded_fault_subset,
    ts,
)
from stkit.atomic import (
    DYNA_TYPES,
    GEO_TYPES,
    REL_TYPES,
    TABLE_KINDS,
    Column,
    DynaRecord,
    ExtRecord,
    GeoUnit,
    GridODRecord,
    GridRecord,
    ODRecord,
    RelationRecord,
    Table,
    UserUnit,
    _check_coord_ranges,
    _shape_fault,
    format_timestamp,
)
from stkit import dataset
from stkit.dataset import (
    AtomicDataset,
    Finding,
    Manifest,
    RawConversionSpec,
    convert_raw_csv,
    dataset_stats,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from stkit.exceptions import (
    BadCoordinate,
    BadFieldValue,
    MissingManifest,
    UnmappedMandatoryColumn,
    ValidationFailed,
)
from stkit.synthetic import generate_synthetic, save_synthetic


def test_clean_dataset_has_zero_findings():
    report = validate_dataset(clean_dataset())
    assert report.findings == []
    assert report.ok
    assert report.summary() == "0 error(s), 0 warning(s)"


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_fault_yields_exactly_one_matching_error(name):
    mutated, expected = inject_faults(clean_dataset(), [name])
    report = validate_dataset(mutated)
    assert len(report.errors) == 1
    (table, fragment) = expected[0]
    finding = report.errors[0]
    assert finding.table == table
    assert fragment in finding.message


def test_all_faults_together_are_all_detected():
    names = sorted(FAULTS)
    mutated, expected = inject_faults(clean_dataset(), names)
    report = validate_dataset(mutated)
    assert len(report.errors) == len(names)
    for table, fragment in expected:
        hits = [
            f for f in report.errors if f.table == table and fragment in f.message
        ]
        assert len(hits) == 1, (table, fragment)


def test_findings_ordered_by_table_then_row():
    mutated, _ = inject_faults(
        clean_dataset(), ["dup_ext_key", "dup_geo_id", "grid_out_of_bounds"]
    )
    report = validate_dataset(mutated)
    tables = [f.table for f in report.errors]
    assert tables == ["geo", "grid", "ext"]


def test_non_monotone_trajectory_times_warn():
    ds = clean_dataset()
    late = DynaRecord("d9", "trajectory", ts(0), "u0", "g0", {"flow": None})
    report = validate_dataset(replace(ds, dyna=[*ds.dyna, late]))
    assert report.errors == []
    assert len(report.warnings) == 1
    assert "not" in report.warnings[0].message
    assert report.ok  # warnings do not fail validation


def test_state_times_not_checked_for_monotonicity():
    ds = clean_dataset()
    late = DynaRecord("d9", "state", ts(0), "g1", None, {"flow": 9})
    assert validate_dataset(replace(ds, dyna=[*ds.dyna, late])).findings == []


def test_every_table_of_a_dataset_is_a_table_and_cannot_be_assigned(tmp_path):
    from_lists = clean_dataset()
    from_tables = AtomicDataset(
        from_lists.manifest,
        **{kind: Table.from_records(kind, getattr(from_lists, kind)) for kind in TABLE_KINDS},
    )
    loaded = load_dataset(save_dataset(from_lists, tmp_path / "clean"))
    changed = replace(from_lists, rel=list(from_lists.rel)[:2])
    empty = AtomicDataset(Manifest(name="empty"))
    for ds in (from_lists, from_tables, loaded, changed, empty):
        for kind in TABLE_KINDS:
            assert isinstance(getattr(ds, kind), Table), kind
            with pytest.raises(FrozenInstanceError):
                setattr(ds, kind, [])
    assert from_tables == from_lists == loaded
    assert len(changed.rel) == 2 and len(from_lists.rel) == 5
    assert changed.geo is from_lists.geo  # replace keeps the other tables
    assert empty.tables() == {} and len(empty.dyna) == 0


def test_absent_referenced_table_warns_once():
    ds = AtomicDataset(
        manifest=Manifest(name="tiny"),
        rel=[
            RelationRecord("r0", "geo", "a", "b", {}),
            RelationRecord("r1", "geo", "b", "a", {}),
        ],
    )
    report = validate_dataset(ds)
    assert report.errors == []
    assert len(report.warnings) == 1


def test_grid_rows_without_manifest_dims_is_error():
    ds = clean_dataset()
    ds.manifest.grid_rows = None
    report = validate_dataset(ds)
    assert len(report.errors) == 2  # one per grid-indexed table present
    assert {f.table for f in report.errors} == {"grid", "gridod"}


def test_save_load_round_trip(tmp_path):
    ds = clean_dataset()
    root = save_dataset(ds, tmp_path / "clean")
    assert (root / "manifest.json").is_file()
    assert (root / "clean.geo").is_file()
    back = load_dataset(root)
    assert back.manifest == ds.manifest
    for kind in ("geo", "usr", "rel", "dyna", "grid", "od", "gridod", "ext"):
        assert getattr(back, kind) == getattr(ds, kind), kind


def test_load_requires_manifest(tmp_path):
    (tmp_path / "x.geo").write_text("geo_id,type,coordinates\n")
    with pytest.raises(MissingManifest):
        load_dataset(tmp_path)


def test_load_rejects_invalid_dataset(tmp_path):
    mutated, _ = inject_faults(clean_dataset(), ["dangling_rel_origin"])
    root = save_dataset(mutated, tmp_path / "broken")
    with pytest.raises(ValidationFailed) as err:
        load_dataset(root)
    assert err.value.report.errors
    # validate=False defers the check to the caller.
    ds = load_dataset(root, validate=False)
    assert ds.rel[0].origin_id == "ghost"


def test_geo_order_manifest_override():
    ds = clean_dataset()
    assert ds.geo_order() == ("g0", "g1", "g2", "g3", "g4", "g5")
    ds.manifest.geo_order = ("g1", "g0")
    assert ds.geo_order() == ("g1", "g0")


def test_manifest_json_round_trip():
    m = Manifest(
        name="x",
        interval_seconds=600,
        grid_rows=4,
        grid_cols=3,
        features=("flow", "speed"),
        geo_order=("a", "b"),
    )
    assert Manifest.from_json(json.loads(json.dumps(m.to_json()))) == m
    sparse = Manifest(name="y")
    assert Manifest.from_json(sparse.to_json()) == sparse


@pytest.mark.parametrize("kind, record", [
    ("grid", GridRecord("q0", "trajectory", ts(0), 0, 0, {})),
    ("od", ODRecord("o0", "trajectory", ts(0), "g0", "g0", {})),
    ("gridod", GridODRecord("go0", "trajectory", ts(0), 0, 0, 1, 1, {})),
], ids=["grid", "od", "gridod"])
def test_grid_od_and_gridod_rows_are_state_rows(kind, record, tmp_path):
    """Validation refuses the types the reader refuses: a grid, od or gridod
    row typed ``trajectory`` is one error on its table and row."""
    ds = AtomicDataset(Manifest(name="t", grid_rows=2, grid_cols=2),
                       geo=[GeoUnit("g0", "Point", ((116.0, 39.9),), {})], **{kind: [record]})
    assert validate_dataset(ds).findings == [
        Finding("error", kind, 1, f"unknown {kind} type 'trajectory'")
    ]
    with pytest.raises(BadFieldValue, match=rf"table={kind}, row=1, column=type"):
        load_dataset(save_dataset(ds, tmp_path / "ds"))


EMPTY_ID_CASES = [
    ("geo", "geo_id", lambda e: GeoUnit(e, "Point", ((116.0, 39.9),), {})),
    ("usr", "usr_id", lambda e: UserUnit(e, {})),
    ("rel", "rel_id", lambda e: RelationRecord(e, "geo", "g0", "g0", {})),
    ("dyna", "entity_id", lambda e: DynaRecord("d0", "state", ts(0), e, None, {})),
    ("grid", "dyna_id", lambda e: GridRecord(e, "state", ts(0), 0, 0, {})),
    ("od", "dyna_id", lambda e: ODRecord(e, "state", ts(0), "g0", "g0", {})),
    ("gridod", "dyna_id", lambda e: GridODRecord(e, "state", ts(0), 0, 0, 1, 1, {})),
    ("ext", "ext_id", lambda e: ExtRecord(e, ts(0), {})),
]


@pytest.mark.parametrize("empty", ["", None], ids=["blank", "none"])
@pytest.mark.parametrize(
    "kind, column, record", EMPTY_ID_CASES, ids=[kind for kind, *_ in EMPTY_ID_CASES]
)
def test_empty_identifiers_fail_validation_as_the_reader_refuses_them(
    kind, column, record, empty, tmp_path
):
    """An identifier cell the reader refuses, written from "" or None, is one
    error naming its column."""
    tables = {"geo": [GeoUnit("g0", "Point", ((116.0, 39.9),), {})], kind: [record(empty)]}
    ds = AtomicDataset(Manifest(name="t", grid_rows=2, grid_cols=2), **tables)
    assert validate_dataset(ds).findings == [
        Finding("error", kind, 1, f"empty {column} {empty!r}")
    ]
    where = rf"identifier cell is empty \(table={kind}, row=1, column={column}\)"
    with pytest.raises(BadFieldValue, match=where):
        load_dataset(save_dataset(ds, tmp_path / "ds"), validate=False)


BAD_CELL_CASES = [
    ("grid", "row_id", 1.5, "is not an integer"),
    ("grid", "row_id", True, "is not an integer"),
    ("grid", "row_id", "1", "is not an integer"),
    ("dyna", "time", "2024-01-01T00:00:00Z", "is not a datetime with a time zone"),
    ("dyna", "time", None, "is not a datetime with a time zone"),
    ("dyna", "time", 5, "is not a datetime with a time zone"),
    ("dyna", "time", datetime(2024, 1, 1), "is not a datetime with a time zone"),
]


@pytest.mark.parametrize(
    "kind, column, value, fault", BAD_CELL_CASES,
    ids=["index_float", "index_bool", "index_str", "time_str", "time_none", "time_int",
         "time_naive"],
)
def test_record_times_and_indices_fail_validation_as_the_reader_refuses_them(
    kind, column, value, fault
):
    """A grid index that is no int, or a time that is no zoned datetime, in
    the second of two rows is one error naming its column; the row is not
    compared with the first (a str, None or naive time would raise there)."""
    if kind == "grid":
        rows = [GridRecord(f"q{i}", "state", ts(0), v, i, {}) for i, v in enumerate((0, value))]
    else:
        rows = [DynaRecord(f"d{i}", "trajectory", t, "u0", None, {})
                for i, t in enumerate((ts(0), value))]
    ds = AtomicDataset(Manifest(name="t", grid_rows=2, grid_cols=2),
                       usr=[UserUnit("u0", {})], **{kind: rows})
    assert validate_dataset(ds).findings == [
        Finding("error", kind, 2, f"{column} {value!r} {fault}")
    ]


def test_a_negative_grid_index_is_outside_the_grid():
    rows = [GridRecord("q0", "state", ts(0), -2, 0, {})]
    ds = AtomicDataset(Manifest(name="t", grid_rows=2, grid_cols=2), grid=rows)
    assert validate_dataset(ds).findings == [
        Finding("error", "grid", 1, "row_id=-2 outside [0, 2)")
    ]


def test_state_and_od_rows_name_ids_of_the_geo_ordering():
    """State and od rows index the manifest's geo_order when it sets one: a
    .geo id it leaves out is an error at each row naming it, and a subset
    ordering that holds every such id is legal."""
    ds = clean_dataset()  # state rows name g0, g1 and g4; od rows too

    def findings(order):
        return validate_dataset(replace(ds, manifest=replace(ds.manifest, geo_order=order)))

    assert findings(("g4", "g1", "g0")).findings == []
    assert [str(f) for f in findings(("g4", "g0")).findings] == [
        "[error] dyna:3: entity_id 'g1' not in the manifest geo_order",
        "[error] od:1: des_id 'g1' not in the manifest geo_order",
        "[error] od:2: origin_id 'g1' not in the manifest geo_order",
    ]


RAW_STATE_CSV = (
    "sensor,ts,speed\n"
    "s1,2020-01-01T00:00:00Z,61.5\n"
    "s2,2020-01-01T00:00:00Z,58.0\n"
    "s1,2020-01-01T00:05:00Z,60.0\n"
)


def test_convert_raw_state_csv():
    spec = RawConversionSpec(
        target="state",
        time_column="ts",
        entity_column="sensor",
        property_columns=("speed",),
        name="speeds",
    )
    ds = convert_raw_csv(spec, RAW_STATE_CSV)
    assert len(ds.dyna) == 3
    assert all(d.dyna_type == "state" for d in ds.dyna)
    assert {g.geo_id for g in ds.geo} == {"s1", "s2"}
    assert ds.dyna[0].properties == {"speed": 61.5}
    assert validate_dataset(ds).errors == []


RAW_TRAJ_CSV = (
    "user,lat,lon,ts\n"
    "u1,39.90,116.40,2020-01-01T00:00:00Z\n"
    "u1,39.91,116.41,2020-01-01T00:10:00Z\n"
    "u2,39.90,116.40,2020-01-01T00:20:00Z\n"
)


def test_convert_raw_trajectory_csv():
    spec = RawConversionSpec(
        target="trajectory",
        time_column="ts",
        entity_column="user",
        lat_column="lat",
        lon_column="lon",
        name="visits",
    )
    ds = convert_raw_csv(spec, RAW_TRAJ_CSV)
    # One geo point per distinct coordinate pair: (39.90, 116.40) repeats.
    assert len(ds.geo) == 2
    assert {u.usr_id for u in ds.usr} == {"u1", "u2"}
    assert len(ds.dyna) == 3
    assert all(d.dyna_type == "trajectory" for d in ds.dyna)
    assert all(d.location is not None for d in ds.dyna)
    assert validate_dataset(ds).errors == []
    # Shared coordinates map to the same geo unit.
    assert ds.dyna[0].location == ds.dyna[2].location


def test_convert_drops_a_leading_byte_order_mark():
    spec = RawConversionSpec(
        target="state", time_column="ts", entity_column="sensor",
        property_columns=("speed",), name="speeds",
    )
    plain = convert_raw_csv(spec, RAW_STATE_CSV)
    for raw in ("\ufeff" + RAW_STATE_CSV, b"\xef\xbb\xbf" + RAW_STATE_CSV.encode("utf-8")):
        ds = convert_raw_csv(spec, raw)
        assert (ds.geo, ds.dyna) == (plain.geo, plain.dyna)


def test_convert_missing_time_column_rejected():
    spec = RawConversionSpec(
        target="state", time_column="when", entity_column="sensor"
    )
    with pytest.raises(UnmappedMandatoryColumn):
        convert_raw_csv(spec, RAW_STATE_CSV)


def test_convert_skips_blank_lines_and_numbers_rows_by_line():
    spec = RawConversionSpec(
        target="trajectory", time_column="ts", entity_column="user",
        lat_column="lat", lon_column="lon",
    )
    raw = RAW_TRAJ_CSV.replace("\nu1,39.91", "\n\nu1,39.91") + "\n"
    ds = convert_raw_csv(spec, raw)
    assert [d.dyna_id for d in ds.dyna] == ["d0", "d1", "d2"]
    edge = convert_raw_csv(spec, raw.replace("39.90,116.40,", "90,-180,", 1))
    assert edge.geo[0].coordinates == ((-180.0, 90.0),)
    with pytest.raises(BadCoordinate, match=r"\(table=raw, row=4, column=lon\)"):
        convert_raw_csv(spec, raw.replace("116.40,2020-01-01T00:20", "inf,2020-01-01T00:20"))


def test_convert_custom_time_format():
    raw = "sensor,ts,v\ns1,01/02/2020 03:04,9\n"
    spec = RawConversionSpec(
        target="state",
        time_column="ts",
        entity_column="sensor",
        property_columns=("v",),
        time_format="%d/%m/%Y %H:%M",
    )
    ds = convert_raw_csv(spec, raw)
    assert ds.dyna[0].time.isoformat() == "2020-02-01T03:04:00+00:00"


def test_dataset_stats_counts_and_span():
    stats = dataset_stats(clean_dataset())
    assert stats["tables"]["geo"] == 6
    assert stats["tables"]["rel"] == 5
    assert stats["tables"]["dyna"] == 7
    assert stats["time_min"] == "2021-03-01T00:00:00Z"
    assert stats["time_max"] == "2021-03-01T00:20:00Z"
    assert stats["features"] == ["flow"]
    assert stats["grid_shape"] == [2, 2]


def test_validation_report_render_mentions_counts():
    mutated, _ = inject_faults(clean_dataset(), ["dup_geo_id"])
    text = validate_dataset(mutated).render()
    assert "1 error(s)" in text
    assert "geo" in text


# -- validate_dataset against the per-record checks it replaced ---------------------
# The functions below are the record-by-record checks validate_dataset ran
# before it read columns; they pin its findings, order included.


def reference_check_geo(ds: AtomicDataset, out: list[Finding]):
    seen: set[str] = set()
    for i, g in enumerate(ds.geo, start=1):
        if g.geo_id in seen:
            out.append(Finding("error", "geo", i, f"duplicate geo_id {g.geo_id!r}"))
            continue
        seen.add(g.geo_id)
        if g.geo_type not in GEO_TYPES:
            out.append(Finding("error", "geo", i, f"unknown geo type {g.geo_type!r}"))
            continue
        fault = _shape_fault(g.geo_type, g.coordinates)
        problems = [] if fault is None else [fault]
        try:
            _check_coord_ranges(g.coordinates)
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            out.append(Finding("error", "geo", i, "; ".join(problems)))


def reference_check_usr(ds: AtomicDataset, out: list[Finding]):
    seen: set[str] = set()
    for i, u in enumerate(ds.usr, start=1):
        if u.usr_id in seen:
            out.append(Finding("error", "usr", i, f"duplicate usr_id {u.usr_id!r}"))
        seen.add(u.usr_id)


def reference_check_rel(ds: AtomicDataset, out: list[Finding], geo_ids, usr_ids):
    seen: set[str] = set()
    missing_side_warned: set[str] = set()
    for i, r in enumerate(ds.rel, start=1):
        if r.rel_id in seen:
            out.append(Finding("error", "rel", i, f"duplicate rel_id {r.rel_id!r}"))
            continue
        seen.add(r.rel_id)
        if r.rel_type not in REL_TYPES:
            out.append(
                Finding("error", "rel", i, f"unknown relation type {r.rel_type!r}")
            )
            continue
        origin_usr = r.rel_type in ("usr", "usr2geo")
        des_geo = r.rel_type in ("geo", "usr2geo")
        for side, value, pool, pool_name in (
            ("origin_id", r.origin_id, usr_ids if origin_usr else geo_ids,
             "usr" if origin_usr else "geo"),
            ("des_id", r.des_id, geo_ids if des_geo else usr_ids,
             "geo" if des_geo else "usr"),
        ):
            if pool is None:
                if pool_name not in missing_side_warned:
                    missing_side_warned.add(pool_name)
                    out.append(
                        Finding(
                            "warning",
                            "rel",
                            None,
                            f"referenced .{pool_name} table absent; endpoints unresolvable",
                        )
                    )
            elif value not in pool:
                out.append(
                    Finding("error", "rel", i, f"{side} {value!r} not found in .{pool_name}")
                )


def reference_check_ext(ds: AtomicDataset, out: list[Finding]):
    seen: set = set()
    for i, x in enumerate(ds.ext, start=1):
        key = (x.ext_id, x.time)
        if key in seen:
            out.append(
                Finding(
                    "error",
                    "ext",
                    i,
                    f"duplicate (ext_id, time) pair {key[0]!r} @ {format_timestamp(key[1])}",
                )
            )
        seen.add(key)


def reference_check_dyna(ds: AtomicDataset, out: list[Finding], geo_ids, usr_ids):
    seen: set[str] = set()
    warned: set[str] = set()
    last_time: dict[str, object] = {}
    nonmonotone: set[str] = set()
    for i, d in enumerate(ds.dyna, start=1):
        if d.dyna_id in seen:
            out.append(Finding("error", "dyna", i, f"duplicate dyna_id {d.dyna_id!r}"))
            continue
        seen.add(d.dyna_id)
        if d.dyna_type not in DYNA_TYPES:
            out.append(
                Finding("error", "dyna", i, f"unknown dyna type {d.dyna_type!r}")
            )
            continue
        if d.dyna_type == "state":
            if geo_ids is None:
                if "state-geo" not in warned:
                    warned.add("state-geo")
                    out.append(
                        Finding(
                            "warning",
                            "dyna",
                            None,
                            "state rows present but .geo table absent; entities unresolvable",
                        )
                    )
            elif d.entity_id not in geo_ids:
                out.append(
                    Finding(
                        "error", "dyna", i, f"entity_id {d.entity_id!r} not in .geo"
                    )
                )
        else:
            if usr_ids is None:
                if "traj-usr" not in warned:
                    warned.add("traj-usr")
                    out.append(
                        Finding(
                            "warning",
                            "dyna",
                            None,
                            "trajectory rows present but .usr table absent; entities unresolvable",
                        )
                    )
            elif d.entity_id not in usr_ids:
                out.append(
                    Finding(
                        "error", "dyna", i, f"entity_id {d.entity_id!r} not in .usr"
                    )
                )
            if d.location is not None:
                if geo_ids is None:
                    if "traj-geo" not in warned:
                        warned.add("traj-geo")
                        out.append(
                            Finding(
                                "warning",
                                "dyna",
                                None,
                                "location column present but .geo table absent",
                            )
                        )
                elif d.location not in geo_ids:
                    out.append(
                        Finding(
                            "error", "dyna", i, f"location {d.location!r} not in .geo"
                        )
                    )
            prev = last_time.get(d.entity_id)
            if prev is not None and d.time < prev and d.entity_id not in nonmonotone:
                nonmonotone.add(d.entity_id)
                out.append(
                    Finding(
                        "warning",
                        "dyna",
                        i,
                        f"timestamps for entity {d.entity_id!r} are not "
                        "non-decreasing in file order",
                    )
                )
            last_time[d.entity_id] = d.time


def reference_check_grid_like(ds: AtomicDataset, out: list[Finding]):
    rows, cols = ds.manifest.grid_rows, ds.manifest.grid_cols
    for kind, index_fields in (
        ("grid", (("row_id", "grid_rows"), ("col_id", "grid_cols"))),
        (
            "gridod",
            (
                ("origin_row_id", "grid_rows"),
                ("origin_col_id", "grid_cols"),
                ("des_row_id", "grid_rows"),
                ("des_col_id", "grid_cols"),
            ),
        ),
    ):
        records = getattr(ds, kind)
        if not records:
            continue
        if rows is None or cols is None:
            out.append(
                Finding(
                    "error",
                    kind,
                    None,
                    "manifest lacks grid_rows/grid_cols but grid-indexed rows exist",
                )
            )
            continue
        seen: set[str] = set()
        for i, rec in enumerate(records, start=1):
            if rec.dyna_id in seen:
                out.append(
                    Finding("error", kind, i, f"duplicate dyna_id {rec.dyna_id!r}")
                )
                continue
            seen.add(rec.dyna_id)
            bad = []
            for attr, bound_name in index_fields:
                value = getattr(rec, attr)
                bound = rows if bound_name == "grid_rows" else cols
                if not 0 <= value < bound:
                    bad.append(f"{attr}={value} outside [0, {bound})")
            if bad:
                out.append(Finding("error", kind, i, "; ".join(bad)))


def reference_check_od(ds: AtomicDataset, out: list[Finding], geo_ids):
    seen: set[str] = set()
    warned = False
    for i, rec in enumerate(ds.od, start=1):
        if rec.dyna_id in seen:
            out.append(Finding("error", "od", i, f"duplicate dyna_id {rec.dyna_id!r}"))
            continue
        seen.add(rec.dyna_id)
        if geo_ids is None:
            if not warned:
                warned = True
                out.append(
                    Finding(
                        "warning",
                        "od",
                        None,
                        ".geo table absent; origin/destination unresolvable",
                    )
                )
            continue
        for side, value in (("origin_id", rec.origin_id), ("des_id", rec.des_id)):
            if value not in geo_ids:
                out.append(
                    Finding("error", "od", i, f"{side} {value!r} not in .geo")
                )


REFERENCE_TABLES = TABLE_KINDS  # validate_dataset order


def reference_findings(ds):
    out = []
    geo_ids = {g.geo_id for g in ds.geo} if ds.geo else None
    usr_ids = {u.usr_id for u in ds.usr} if ds.usr else None
    reference_check_geo(ds, out)
    reference_check_usr(ds, out)
    reference_check_rel(ds, out, geo_ids, usr_ids)
    reference_check_dyna(ds, out, geo_ids, usr_ids)
    reference_check_grid_like(ds, out)
    reference_check_od(ds, out, geo_ids)
    reference_check_ext(ds, out)
    order = {kind: k for k, kind in enumerate(REFERENCE_TABLES)}
    out.sort(key=lambda f: (order[f.table], f.row if f.row is not None else 0))
    return out


def perturbed_dataset(seed, parseable=False):
    """clean_dataset with seeded faults plus random rows of every kind: dangling
    ids, unordered stamps, absent tables and, unless the tables must stay
    parseable, repeated ids, unknown types and malformed geometry. The rows
    are made as record lists and put into one AtomicDataset."""
    faults = seeded_fault_subset(seed)
    if parseable:
        faults = [f for f in faults if f in PARSEABLE_FAULTS]
    clean, _ = inject_faults(clean_dataset(), faults)
    tables = {kind: list(getattr(clean, kind)) for kind in TABLE_KINDS}
    manifest = clean.manifest
    rng = random.Random(seed)

    def new_id(prefix, n, taken):
        return f"{prefix}{n + 9}" if parseable else rng.choice([f"{prefix}{n + 9}", taken])

    def pick(kinds, odd):
        return rng.choice(kinds if parseable else kinds + odd)

    def shape():
        lon, lat = rng.uniform(116.0, 116.5), rng.uniform(39.5, 40.0)
        if not parseable and rng.random() < 0.5:
            return rng.choice([
                ("Point", ((lon, 95.0),)),
                ("LineString", ((lon, lat),)),
                ("Polygon", ((lon, lat), (lon, 39.0), (116.6, lat), (lon, 39.1))),
                ("Polygon", ((lon, lat), (190.0, lat), (lon, lat))),
            ])
        return rng.choice([
            ("Point", ((lon, lat),)),
            ("LineString", ((lon, lat), (lon, 39.0))),
        ])

    for n in range(rng.randint(0, 20)):
        pick_kind = rng.random()
        if pick_kind < 0.25:
            tables["dyna"].append(DynaRecord(
                new_id("t", n, "d3"), "trajectory", ts(rng.randint(0, 9)),
                rng.choice(["u0", "u1", "nobody"]), rng.choice([None, "g0", "nowhere"]),
                {"flow": None},
            ))
        elif pick_kind < 0.4:
            tables["dyna"].append(DynaRecord(
                new_id("s", n, "d0"), pick(["state"] * 2, ["stream"]),
                ts(rng.randint(0, 9)), rng.choice(["g0", "g1", "ghost"]), None, {"flow": 1},
            ))
        elif pick_kind < 0.5:
            tables["od"].append(ODRecord(
                new_id("o", n, "o0"), "state", ts(rng.randint(0, 9)),
                rng.choice(["g0", "ghost"]), rng.choice(["g1", "phantom"]), {"demand": 1},
            ))
        elif pick_kind < 0.6:
            tables["grid"].append(GridRecord(
                new_id("q", n, "q1"), "state", ts(rng.randint(0, 9)),
                rng.randint(0, 3), rng.randint(0, 3), {"inflow": 1},
            ))
        elif pick_kind < 0.7:
            geo_type, coordinates = shape()
            geo_type = pick([geo_type] * 3, ["Blob"])
            tables["geo"].append(
                GeoUnit(new_id("g", n, "g2"), geo_type, coordinates, {"kind": "x"})
            )
        elif pick_kind < 0.75:
            tables["usr"].append(UserUnit(new_id("u", n, "u1"), {}))
        elif pick_kind < 0.9:
            tables["rel"].append(RelationRecord(
                new_id("r", n, "r2"), pick(list(REL_TYPES), ["geo2geo"]),
                rng.choice(["g0", "u0", "ghost"]), rng.choice(["g1", "u1", "phantom"]),
                {"weight": 1.0},
            ))
        else:
            tables["ext"].append(ExtRecord(
                pick([f"x{n}"], ["w0"]), ts(rng.randint(0, 2)), {"temp": 1.0}
            ))
    for kind in ("dyna", "rel"):
        if rng.random() < 0.5:
            rng.shuffle(tables[kind])
    if rng.random() < 0.3:
        tables["geo"] = []
    if rng.random() < 0.3:
        tables["usr"] = []
    if rng.random() < 0.2:
        manifest = replace(manifest, grid_rows=None)
    return AtomicDataset(manifest, **tables)


@pytest.mark.parametrize("seed", range(40))
def test_dyna_grid_od_findings_match_the_per_record_checks(seed, tmp_path):
    # The findings of all eight kinds; the name dates from the first three.
    for parseable in (False, True):
        ds = perturbed_dataset(seed, parseable)
        assert validate_dataset(ds).findings == reference_findings(ds)
    # The same findings from the tables read back from files.
    loaded = load_dataset(save_dataset(ds, tmp_path / "ds"), validate=False)
    assert validate_dataset(loaded).findings == reference_findings(ds)


def test_absent_table_warnings_follow_their_first_rows():
    ds = AtomicDataset(
        manifest=Manifest(name="w"),
        dyna=[
            DynaRecord("t0", "trajectory", ts(0), "u0", "g0", {}),
            DynaRecord("s0", "state", ts(0), "g0", None, {}),
        ],
    )
    got = validate_dataset(ds).findings
    assert got == reference_findings(ds)
    assert [f.message.split()[0] for f in got] == ["trajectory", "location", "state"]


def test_absent_table_warnings_follow_their_first_relation_ends():
    ds = AtomicDataset(
        manifest=Manifest(name="w"),
        rel=[
            RelationRecord("r0", "usr2geo", "u0", "g0", {}),
            RelationRecord("r1", "geo", "g0", "g1", {}),
        ],
    )
    got = validate_dataset(ds).findings
    assert got == reference_findings(ds)
    assert [f.message.split()[1] for f in got] == [".usr", ".geo"]


def test_references_look_up_only_the_values_of_flagged_rows():
    """A reference checks its pool once per value that a flagged row holds;
    one with no flagged row looks nothing up, and neither gives a finding."""
    asked = []

    class Pool:
        def __contains__(self, value):
            asked.append(value)
            return value != "b"

    column = Column(np.array([0, 1, 2, 1, 3], dtype=np.uint8), ["a", "b", "c", "d"])
    flagged = np.array([False, True, False, True, True])
    none = np.zeros(5, dtype=bool)
    found = []
    dataset._references(found, "rel", [
        (flagged, column, "geo", 0, "origin_id {!r} not found in .geo", "geo absent"),
        (none, column, "usr", 1, "des_id {!r} not found in .usr", "usr absent"),
        (none, column, "order", 0, "never", "never"),
    ], {"geo": Pool(), "usr": Pool(), "order": None})
    assert sorted(asked) == ["b", "d"]
    assert [f for _, f in found] == [
        Finding("error", "rel", 2, "origin_id 'b' not found in .geo"),
        Finding("error", "rel", 4, "origin_id 'b' not found in .geo"),
    ]


def test_each_geo_row_gets_its_first_fault_only():
    ds = AtomicDataset(
        manifest=Manifest(name="g"),
        geo=[
            GeoUnit("g0", "Blob", ((200.0, 95.0),), {}),
            GeoUnit("g0", "Point", ((200.0, 95.0),), {}),
            GeoUnit("g1", "Polygon", ((0.0, 0.0), (1.0, 95.0), (0.0, 0.0)), {}),
        ],
    )
    got = validate_dataset(ds).findings
    assert got == reference_findings(ds)
    assert [f.message for f in got] == [
        "unknown geo type 'Blob'",
        "duplicate geo_id 'g0'",
        "Polygon ring needs at least four points; latitude 95.0 outside [-90, 90]",
    ]


# -- which tables get the reader's own rules ----------------------------------------


@pytest.mark.parametrize("kind, params", [
    ("graph_flow", {"n_nodes": 6, "n_slots": 48}),
    ("grid_flow", {"rows": 3, "cols": 4, "n_slots": 48}),
    ("trajectories", {"n": 4, "n_trajectories": 3, "route_segments": 4}),
])
def test_loaded_tables_skip_the_readers_own_rules(kind, params, tmp_path, monkeypatch):
    """read_table refused repeated ids, unknown types and bad geometry, so
    validating what it read runs only the rules across tables."""
    path = save_synthetic(generate_synthetic(kind, params, seed=3), tmp_path / kind)
    loaded = load_dataset(path, validate=False)
    assert all(table.checked for table in loaded.tables().values())

    def proven_already(*args):
        raise AssertionError("a read table's own rules ran again")

    monkeypatch.setattr(Column, "repeats", proven_already)
    monkeypatch.setattr(dataset, "_geometry_fault", proven_already)
    assert validate_dataset(loaded).findings == []


def _planted(geo, fault):
    """``geo`` with one fault the reader refuses: its first row repeated at
    the end, or an unknown type or an open polygon in its first row."""
    rows = np.arange(len(geo))
    if fault == "repeat":
        return geo.take(np.append(rows, 0))
    types, coordinates = geo.field("geo_type").tolist(), geo.field("coordinates").tolist()
    if fault == "type":
        types[0] = "Blob"
    else:
        types[0], coordinates[0] = "Polygon", ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    return geo.take(rows, geo_type=types, coordinates=coordinates)


def _source(name, tmp_path):
    if name == "records":
        return clean_dataset()
    if name == "synthetic":
        return generate_synthetic("trajectories", {"n": 3, "n_trajectories": 2}, seed=1).dataset
    if name == "converted":
        spec = RawConversionSpec(target="trajectory", time_column="ts", entity_column="user",
                                 lat_column="lat", lon_column="lon")
        return convert_raw_csv(spec, RAW_TRAJ_CSV)
    return load_dataset(save_dataset(clean_dataset(), tmp_path / "read"))


@pytest.mark.parametrize("fault, message", [
    ("repeat", "duplicate geo_id {!r}"),
    ("type", "unknown geo type 'Blob'"),
    ("open", "Polygon ring must close (first == last)"),
], ids=["repeat", "type", "open"])
@pytest.mark.parametrize("source", ["records", "synthetic", "converted", "read"])
def test_other_tables_keep_every_rule(source, fault, message, tmp_path):
    """Record-built, constructed, converted and selected or taken tables are
    not checked, so validation still finds what the reader would refuse."""
    ds = _source(source, tmp_path)
    assert ds.geo.checked == (source == "read")
    assert not ds.geo.select(np.ones(len(ds.geo), dtype=bool)).checked
    geo = _planted(ds.geo, fault)
    assert not geo.checked
    if source == "records":
        geo = list(geo)  # put behind from_records by the dataset
    row = len(ds.geo) + 1 if fault == "repeat" else 1
    expected = Finding("error", "geo", row, message.format(ds.geo[0].geo_id))
    assert validate_dataset(replace(ds, geo=geo)).errors == [expected]
