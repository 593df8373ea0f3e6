"""``convert_raw_csv`` against the per-row converter it replaced.

``conftest.record_convert_raw_csv`` is the converter stkit shipped before raw
text was read as columns: one ``csv.reader`` row, one Python check and one
``DynaRecord`` at a time. Seeded raw CSVs of both targets, clean or with
faults, each give the same saved bytes from both, or the same exception class
and message. The generator leaves out the coordinate cells whose number rule
changed (other scripts' digits, ``_``, surrounding spaces, ``inf``, ``nan``);
``test_cli.py``'s failure matrix holds those.
"""

import random

import pytest

from conftest import record_convert_raw_csv
from stkit.dataset import RawConversionSpec, convert_raw_csv, save_dataset
from stkit.exceptions import StkitError

FORMATS = {
    None: lambda d, h, m: f"2024-{d // 28 + 1:02d}-{d % 28 + 1:02d}T{h:02d}:{m:02d}:00Z",
    "%Y/%m/%d %H:%M": lambda d, h, m: f"2024/{d // 28 + 1:02d}/{d % 28 + 1:02d} {h:02d}:{m:02d}",
    "%d.%m.%Y %H:%M:%S%z": lambda d, h, m: f"{d % 28 + 1:02d}.03.2024 {h:02d}:{m:02d}:00+0130",
}
BAD_TIMES = ["", "badtime", "2024-02-30T00:00:00Z", "2024-01-01 00:00", "24:00",
             "0001-01-01 00:00:00+0500"]
SPELLINGS = ["1", "1.0", "-0.0", "0.0", "+0.0", "0", "-1", "-1.00", "2.5", "2.50", "1e1",
             "10", ".5", "0.5", "5.", "-90", "90", "180", "-180"]
BAD_COORDS = ["", "north", "95", "-181", "1e400", "1..2", "0x1", "[1]"]
PROPERTY_CELLS = ["", "3", "3.0", "-0.0", "007", "abc", "1e5", "9" * 25]
QUOTED_CELLS = ["a,b", 'say "hi"', ","]


def _cell(rng, good, bad, p_bad):
    return rng.choice(bad) if rng.random() < p_bad else rng.choice(good)


def random_conversion(rng: random.Random):
    """A spec and raw CSV text, and the features it holds."""
    target = rng.choice(["state", "trajectory"])
    time_format = rng.choice(list(FORMATS))
    with_coords = target == "trajectory" or rng.random() < 0.6
    props = rng.sample(["speed", "flow", "note", "p4"], rng.randint(0, 3))
    header = ["ts", "who", *props, *rng.sample(["extra", "other"], rng.randint(0, 2))]
    if with_coords:
        header += ["lon", "lat"]
    if rng.random() < 0.05:  # a mapped column the header lacks
        header.remove(rng.choice(header[:2] + header[-2:] if with_coords else header[:2]))
    if rng.random() < 0.05:  # a repeated header name: refused if it is mapped
        header.append(rng.choice(header))
    rng.shuffle(header)
    spec = RawConversionSpec(
        target=target, time_column="ts", entity_column="who",
        lat_column="lat" if with_coords or rng.random() < 0.3 else None,
        lon_column="lon" if with_coords or rng.random() < 0.3 else None,
        property_columns=tuple(props), time_format=time_format, name="conv",
    )
    p_bad = rng.choice([0.0, 0.0, 0.02, 0.1])
    entities = [f"e{k}" for k in range(rng.randint(1, 5))]
    lines, features = [",".join(header)], set()
    for _ in range(rng.randint(0, 14)):
        if rng.random() < 0.1:
            lines.append("")
            features.add("blank line")
        stamp = FORMATS[time_format](rng.randrange(50), rng.randrange(24), rng.randrange(60))
        row = {
            "ts": _cell(rng, [stamp], BAD_TIMES, p_bad),
            "who": _cell(rng, entities, [""], p_bad),
            "lon": _cell(rng, SPELLINGS, BAD_COORDS, p_bad),
            "lat": _cell(rng, SPELLINGS[:-2], BAD_COORDS, p_bad),
        }
        cells = [row.get(name, _cell(rng, PROPERTY_CELLS, QUOTED_CELLS, 0.04)) for name in header]
        if target == "state" and rng.random() < 0.2:  # only an entity's first row is read
            cells = [rng.choice(BAD_COORDS) if n in ("lon", "lat") else c
                     for n, c in zip(header, cells)]
        if rng.random() < 0.03:
            cells = cells[: rng.randrange(len(cells))]
            features.add("short row")
        elif rng.random() < 0.03:
            cells.append("spare")
            features.add("long row")
        lines.append(",".join('"' + c.replace('"', '""') + '"' if any(q in c for q in ',"')
                              else c for c in cells))
    text = "\n".join(lines) + rng.choice(["\n", "", "\n\n"])
    if rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
        features.add("crlf")
    features.add("quoted cell" if '"' in text else "crlf" if "\r" in text
                 else "blank line" if "\n\n" in text.rstrip("\n") else "plain")
    features.add(f"{target} {'with' if with_coords else 'without'} coordinates")
    return spec, text, features


def outcome(convert, spec, text, root):
    """The saved files' bytes by name, or the exception's class and message."""
    try:
        ds = convert(spec, text.encode("utf-8"))
    except StkitError as exc:
        return type(exc).__name__, str(exc)
    save_dataset(ds, root)
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@pytest.mark.parametrize("seed", range(4))
def test_convert_matches_the_per_row_converter(seed, tmp_path):
    """100 raw CSVs per seed: equal saved bytes, or equal errors."""
    rng = random.Random(seed)
    seen, results = set(), set()
    for case in range(100):
        spec, text, features = random_conversion(rng)
        want = outcome(record_convert_raw_csv, spec, text, tmp_path / f"want{case}")
        got = outcome(convert_raw_csv, spec, text, tmp_path / f"got{case}")
        assert got == want, (spec, text)
        seen |= features
        results.add(want[0] if isinstance(want, tuple) else "saved")
    assert {"state with coordinates", "state without coordinates",
            "trajectory with coordinates", "blank line", "crlf", "quoted cell", "plain",
            "short row", "long row"} <= seen
    assert {"saved", "BadTimestamp", "BadCoordinate", "BadFieldValue", "RaggedRow"} <= results
