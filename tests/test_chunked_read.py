"""Plain tables encoded chunk by chunk against the same tables read in one chunk.

``read_table`` and ``convert_raw_csv`` encode a text with no quote, ``\\r`` or
NUL ``atomic._CHUNK`` characters at a time. The differential corpora of
``test_parse_differential.py`` and ``test_convert_differential.py`` are read
again with the chunk cut down to a row or less, so every table of them spans
several chunks: the columns, ordinals and located errors must not change.
The last tests bound the memory a large read holds for a moment, what a
read keeps, and what ``write_table`` holds while it writes.
"""

import gc
import random
import tracemalloc

import numpy as np
import pytest

from conftest import TABLE_GENERATOR_KINDS, random_usr_records
from stkit import atomic
from stkit.atomic import read_table, write_table
from stkit.dataset import convert_raw_csv
from stkit.exceptions import RaggedRow
from stkit.synthetic import generate_synthetic
from test_convert_differential import outcome as convert_outcome
from test_convert_differential import random_conversion
from test_parse_differential import LAYOUTS, csv_text, inject, plain, random_rows
from test_synthetic import GRAPH_HA

CHUNKS = (1, 40, 100)  # characters: a line at a time, about one row, two or three rows


def read(kind, text):
    """Each column's codes and values and the rows' ordinals, or the error's
    class, message, row and column."""
    try:
        table = read_table(kind, text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    columns = [*table._fields.values(), *table._props.values()]
    return ([(c.codes.dtype, c.codes.tolist(), c.values) for c in columns],
            [table.ordinal(i) for i in range(len(table))])


@pytest.fixture
def chunked(monkeypatch):
    """``read`` of a text at the default chunk and at each of ``CHUNKS``,
    which must all agree; it returns how many of them took csv.reader."""
    calls = []
    csv_rows = atomic._csv_rows
    monkeypatch.setattr(atomic, "_csv_rows", lambda *a: calls.append(a) or csv_rows(*a))

    def check(kind, text):
        before = len(calls)
        want = read(kind, text)
        for size in CHUNKS:
            with monkeypatch.context() as m:
                m.setattr(atomic, "_CHUNK", size)
                assert read(kind, text) == want, (size, text)
        return len(calls) - before

    return check


@pytest.mark.parametrize("generator_kind", TABLE_GENERATOR_KINDS)
def test_parse_corpora_read_alike_in_small_chunks(generator_kind, chunked):
    """The clean, faulted and laid-out random tables of the parse
    differential, each as written and with no cell that needs quotes."""
    rng = np.random.default_rng(sum(map(ord, generator_kind)) + 3)
    took_csv_reader = set()
    for _ in range(30):
        kind, _, rows = random_rows(generator_kind, rng)
        if rng.random() < 0.5:
            rows.insert(int(rng.integers(1, len(rows) + 1)), [])
        faulted = [list(row) for row in rows]
        for _ in range(int(rng.integers(1, 4))):
            inject(kind, faulted, rng)
        for base in (rows, faulted, plain(rows), plain(faulted)):
            for layout in LAYOUTS.values():
                took_csv_reader.add(chunked(kind, layout(base, rng)) > 0)
    assert took_csv_reader == {True, False}


def test_single_column_tables_read_alike_in_small_chunks(chunked):
    rng = np.random.default_rng(12)
    for _ in range(100):
        records = random_usr_records(rng, int(rng.integers(1, 8)), ())
        rows = [["usr_id"], *([r.usr_id] for r in records)]
        for _ in range(int(rng.integers(0, 4))):
            rows.insert(int(rng.integers(1, len(rows) + 1)), [])
        text = csv_text(rows)
        for text in (text, text + "\n", text.removesuffix("\n"), "\n" + text):
            chunked("usr", text)


@pytest.mark.parametrize("seed", range(4))
def test_convert_corpus_converts_alike_in_small_chunks(seed, tmp_path, monkeypatch):
    """The convert differential's raw CSVs: equal saved bytes, or equal errors."""
    rng = random.Random(seed)
    for case in range(100):
        spec, text, _ = random_conversion(rng)
        want = convert_outcome(convert_raw_csv, spec, text, tmp_path / f"want{case}")
        for size in CHUNKS:
            with monkeypatch.context() as m:
                m.setattr(atomic, "_CHUNK", size)
                got = convert_outcome(convert_raw_csv, spec, text, tmp_path / f"{size}-{case}")
            assert got == want, (size, spec, text)


def _dyna_lines(n=40):
    """The lines of a plain state dyna table with a property, header first."""
    ds = generate_synthetic("graph_flow", {"n_nodes": 4, "n_slots": 10}, seed=5).dataset
    return write_table("dyna", ds.dyna[:n]).decode("utf-8").splitlines()


@pytest.mark.parametrize("fault", ["blank", "ragged", "long", "quote", "crlf", "end_blank"])
@pytest.mark.parametrize("row", [1, 12, 25, 39])
def test_a_fault_first_seen_in_a_later_chunk(fault, row, chunked):
    """A blank line, a ragged row or a quote met only after the first chunk
    sends the whole text through csv.reader, and every row before it is read
    as it is in one chunk; a blank line at the end is skipped."""
    lines = _dyna_lines()
    assert len(lines) == 41 and 30 < len(lines[1]) < 40  # row 12 is past 3 chunks of 100
    if fault == "blank":
        lines.insert(row, "")
    elif fault == "ragged":
        lines[row] = lines[row].rsplit(",", 1)[0]
    elif fault == "long":
        lines[row] += ",x"
    elif fault == "quote":
        cells = lines[row].split(",")
        lines[row] = ",".join([*cells[:-1], f'"{cells[-1]}"'])
    elif fault == "crlf":
        lines[row] += "\r"
    text = "\n".join(lines) + ("\n\n" if fault == "end_blank" else "\n")
    assert chunked("dyna", text) > 0
    table = read_table("dyna", "\n".join(_dyna_lines()) + "\n")
    got = read("dyna", text)
    if fault in ("ragged", "long"):
        assert got[0] is RaggedRow and got[2] == row
    else:
        assert [r.dyna_id for r in read_table("dyna", text)] == [r.dyna_id for r in table]


def test_plain_tables_span_chunks_without_csv_reader(chunked):
    """Edges that cost nothing on the plain path: rows cut at every line,
    a header-only table, and a last row with no newline."""
    lines = _dyna_lines()
    for text in ("\n".join(lines) + "\n", "\n".join(lines), lines[0] + "\n", lines[0]):
        assert chunked("dyna", text) == 0


def test_reading_holds_little_beside_the_table(tmp_path):
    """A 1.7 MB graph_flow dyna table, read from a file as ``load_dataset``
    reads one: the traced peak less what the table keeps is under 3.6 bytes
    per file byte. Measured 2.7 here, and 6.8 when the whole text was split
    into one flat cell list at once."""
    ds = generate_synthetic("graph_flow", {"n_nodes": 20, "n_slots": 2016}, seed=3).dataset
    path = tmp_path / "flow.dyna"
    size = path.write_bytes(write_table("dyna", ds.dyna))
    assert size > 1_000_000
    del ds
    gc.collect()
    tracemalloc.start()
    try:
        with path.open("rb") as f:
            table = read_table("dyna", f)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 20 * 2016
    assert (peak - kept) / size < 3.6


def test_writing_and_reading_the_benchmark_dyna_table_hold_little(tmp_path):
    """The seed-7 graph_ha dyna table (4.2 MB). ``write_table`` formats each
    column's distinct cells once and joins and encodes ``_WRITE_ROWS`` rows
    at a time: its traced peak is at most 2.5 bytes per output byte
    (measured 2.14; 5.34 when every row was gathered at once). A read keeps
    its all-distinct ``dyna_id`` cells and narrow codes: under 2.0 bytes per
    file byte (measured 1.78; 2.62 with int64 codes)."""
    table = generate_synthetic("graph_flow", GRAPH_HA, seed=7).dataset.dyna
    gc.collect()
    tracemalloc.start()
    try:
        data = write_table("dyna", table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) > 4_000_000
    assert peak / len(data) <= 2.5
    path = tmp_path / "bench_graph.dyna"
    size = path.write_bytes(data)
    del table, data
    gc.collect()
    tracemalloc.start()
    try:
        with path.open("rb") as f:
            table = read_table("dyna", f)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) > 95_000
    assert kept / size < 2.0
