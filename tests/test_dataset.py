"""Dataset assembly: validation findings, disk round trips, raw conversion."""

import json
import random

import pytest

from conftest import FAULTS, clean_dataset, inject_faults, seeded_fault_subset, ts
from stkit.atomic import (
    DYNA_TYPES,
    DynaRecord,
    GeoUnit,
    GridRecord,
    ODRecord,
    RelationRecord,
    Table,
    UserUnit,
)
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
    MissingManifest,
    UnmappedMandatoryColumn,
    ValidationFailed,
)


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
    ds.dyna.append(DynaRecord("d9", "trajectory", ts(0), "u0", "g0", {"flow": None}))
    report = validate_dataset(ds)
    assert report.errors == []
    assert len(report.warnings) == 1
    assert "not" in report.warnings[0].message
    assert report.ok  # warnings do not fail validation


def test_state_times_not_checked_for_monotonicity():
    ds = clean_dataset()
    ds.dyna.append(DynaRecord("d9", "state", ts(0), "g1", None, {"flow": 9}))
    assert validate_dataset(ds).findings == []


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


def test_convert_missing_time_column_rejected():
    spec = RawConversionSpec(
        target="state", time_column="when", entity_column="sensor"
    )
    with pytest.raises(UnmappedMandatoryColumn):
        convert_raw_csv(spec, RAW_STATE_CSV)


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


# -- dyna, grid and od checks against the per-record checks they replaced ------------
# The three functions below are the record-by-record checks validate_dataset
# ran before it read columns; they pin its findings, order included.


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


REFERENCE_TABLES = ("dyna", "grid", "od", "gridod")  # validate_dataset order


def reference_findings(ds):
    out = []
    geo_ids = {g.geo_id for g in ds.geo} if ds.geo else None
    usr_ids = {u.usr_id for u in ds.usr} if ds.usr else None
    reference_check_dyna(ds, out, geo_ids, usr_ids)
    reference_check_grid_like(ds, out)
    reference_check_od(ds, out, geo_ids)
    order = {kind: k for k, kind in enumerate(REFERENCE_TABLES)}
    out.sort(key=lambda f: (order[f.table], f.row if f.row is not None else 0))
    return out


# Faults that leave every table parseable; the others break a parse rule.
PARSEABLE_FAULTS = {
    "dangling_rel_origin", "dangling_rel_des", "dangling_state_entity",
    "dangling_traj_entity", "dangling_traj_location", "grid_out_of_bounds",
    "dangling_od_origin", "gridod_out_of_bounds",
}


def perturbed_dataset(seed, parseable=False):
    """clean_dataset with seeded faults plus random state, trajectory, grid and
    od rows: dangling ids, unordered stamps, absent tables and, unless the
    tables must stay parseable, repeated ids and unknown types."""
    faults = seeded_fault_subset(seed)
    if parseable:
        faults = [f for f in faults if f in PARSEABLE_FAULTS]
    ds, _ = inject_faults(clean_dataset(), faults)
    rng = random.Random(seed)

    def new_id(prefix, n, taken):
        return f"{prefix}{n + 9}" if parseable else rng.choice([f"{prefix}{n + 9}", taken])

    for n in range(rng.randint(0, 12)):
        pick = rng.random()
        if pick < 0.4:
            ds.dyna.append(DynaRecord(
                new_id("t", n, "d3"), "trajectory", ts(rng.randint(0, 9)),
                rng.choice(["u0", "u1", "nobody"]), rng.choice([None, "g0", "nowhere"]),
                {"flow": None},
            ))
        elif pick < 0.6:
            dyna_type = "state" if parseable else rng.choice(["state", "state", "stream"])
            ds.dyna.append(DynaRecord(
                new_id("s", n, "d0"), dyna_type, ts(rng.randint(0, 9)),
                rng.choice(["g0", "g1", "ghost"]), None, {"flow": 1},
            ))
        elif pick < 0.8:
            ds.od.append(ODRecord(
                new_id("o", n, "o0"), "state", ts(rng.randint(0, 9)),
                rng.choice(["g0", "ghost"]), rng.choice(["g1", "phantom"]), {"demand": 1},
            ))
        else:
            ds.grid.append(GridRecord(
                new_id("q", n, "q1"), "state", ts(rng.randint(0, 9)),
                rng.randint(0, 3), rng.randint(0, 3), {"inflow": 1},
            ))
    if rng.random() < 0.5:
        rng.shuffle(ds.dyna)
    if rng.random() < 0.3:
        ds.geo = []
    if rng.random() < 0.3:
        ds.usr = []
    if rng.random() < 0.2:
        ds.manifest.grid_rows = None
    return ds


@pytest.mark.parametrize("seed", range(40))
def test_dyna_grid_od_findings_match_the_per_record_checks(seed, tmp_path):
    for parseable in (False, True):
        ds = perturbed_dataset(seed, parseable)
        got = [f for f in validate_dataset(ds).findings if f.table in REFERENCE_TABLES]
        assert got == reference_findings(ds)
    # The same findings from the tables read back as columns.
    loaded = load_dataset(save_dataset(ds, tmp_path / "ds"), validate=False)
    assert isinstance(loaded.dyna, Table)
    got = [f for f in validate_dataset(loaded).findings if f.table in REFERENCE_TABLES]
    assert got == reference_findings(ds)


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
