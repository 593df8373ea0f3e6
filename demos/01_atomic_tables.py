"""Atomic tables end to end: build records, write CSV bytes, parse back,
validate a whole dataset, and watch the validator catch a planted fault."""

from dataclasses import replace
from datetime import datetime, timezone

from stkit.atomic import (
    DynaRecord,
    GeoUnit,
    RelationRecord,
    parse_table,
    write_table,
)
from stkit.dataset import AtomicDataset, Manifest, validate_dataset

t0 = datetime(2024, 5, 1, 8, 0, tzinfo=timezone.utc)

# Two road segments and a junction link. Coordinates are (lon, lat) pairs;
# properties come back typed: "" -> None, integer literals -> int, the rest
# float or str.
geo = [
    GeoUnit("s1", "LineString", ((116.30, 39.90), (116.31, 39.90)), {"lanes": 3}),
    GeoUnit("s2", "LineString", ((116.31, 39.90), (116.32, 39.90)), {"lanes": 2}),
]
rel = [RelationRecord("r0", "geo", "s1", "s2", {})]
dyna = [
    DynaRecord(f"d{i}", "state", t0.replace(minute=5 * i), seg, None, {"flow": flow})
    for i, (seg, flow) in enumerate(
        [("s1", 120.0), ("s2", 95.0), ("s1", 130.0), ("s2", 88.0)]
    )
]

blob = write_table("geo", geo)
print("--- serialized .geo table ---")
print(blob.decode("utf-8"))

parsed = parse_table("geo", blob)
print("round trip identical:", parsed == geo)
print("typed property:", parsed[0].properties["lanes"], type(parsed[0].properties["lanes"]).__name__)

ds = AtomicDataset(
    manifest=Manifest(name="junction", interval_seconds=300, features=("flow",)),
    geo=geo,
    rel=rel,
    dyna=dyna,
)
report = validate_dataset(ds)
print("\nclean dataset:", report.summary())

# Plant a dangling reference and validate again. A dataset holds its tables
# as read-only columns, so a changed copy is made with replace.
broken = replace(ds, rel=[*ds.rel, RelationRecord("r1", "geo", "s1", "s99", {})])
report = validate_dataset(broken)
print("after planting a dangling link:", report.summary())
for finding in report.findings:
    print(" ", finding)
