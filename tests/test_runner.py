"""End-to-end runs of all three tasks plus tuning, conversion, stats."""

import io
import json
import math
import struct
import time
import zipfile
import zlib
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from conftest import ranking_dataset
from stkit import runner
from stkit.atomic import (
    DynaRecord,
    ExtRecord,
    GeoUnit,
    GridODRecord,
    GridRecord,
    ODRecord,
    RelationRecord,
    UserUnit,
    Table,
    parse_table,
)
from stkit.config import load_config
from stkit.dataset import save_dataset
from stkit.exceptions import (
    BadConfigFile,
    BadModelParams,
    DatasetNotFound,
    EmptySegment,
    IncompatibleModelTask,
    NoResults,
    TensorTooLarge,
    ValidationFailed,
)
from stkit.evaluate import ranking_metrics
from stkit.leaderboard import build_leaderboard, load_runs
from stkit.pipeline import split_per_user
from stkit.runner import (
    MODEL_TASKS,
    TASKS,
    cmd_convert,
    cmd_run,
    cmd_stats,
    cmd_tune,
    cmd_validate,
    resolve_dataset_dir,
)
from stkit.runner import _run_id, _write_predictions
from stkit.synthetic import TRUTH_ROUTES_FILE, generate_synthetic, save_synthetic
from stkit.tensorize import build_time_axis


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("datasets")
    save_synthetic(
        generate_synthetic(
            "graph_flow",
            {"n_nodes": 3, "n_slots": 60, "period": 4, "name": "flow_p4"},
            seed=0,
        ),
        root / "flow_p4",
    )
    save_synthetic(
        generate_synthetic(
            "graph_flow",
            {
                "n_nodes": 3,
                "n_slots": 60,
                "mode": "var",
                "coefs": [[[0.4, 0.1, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]]],
                "intercept": [2.0, -1.0, 0.5],
                "x0": [[50.0, -40.0, 30.0]],
                "name": "flow_var",
            },
            seed=1,
        ),
        root / "flow_var",
    )
    save_synthetic(
        generate_synthetic(
            "grid_flow",
            {"rows": 2, "cols": 2, "n_slots": 60, "period": 4, "name": "grid_p4"},
            seed=2,
        ),
        root / "grid_p4",
    )
    save_synthetic(
        generate_synthetic(
            "trajectories",
            {"n": 3, "n_trajectories": 3, "route_segments": 5, "name": "traces"},
            seed=3,
        ),
        root / "traces",
    )
    save_dataset(ranking_dataset(), root / "checkins")
    return root


def flow_config(data_root, out, **overrides):
    file_values = {
        "input_window": 4,
        "output_window": 2,
        "horizons": [1, 2],
        **overrides,
    }
    return load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "HA",
            "dataset": str(data_root / "flow_p4"),
            "output_dir": str(out),
        },
        file_values=file_values,
    )


# -- dataset resolution --------------------------------------------------------


def test_resolve_literal_directory(data_root):
    assert resolve_dataset_dir(str(data_root / "flow_p4")) == data_root / "flow_p4"


def test_resolve_via_env(data_root, monkeypatch):
    monkeypatch.setenv("STKIT_DATA_DIR", str(data_root))
    assert resolve_dataset_dir("flow_p4") == data_root / "flow_p4"
    with pytest.raises(DatasetNotFound):
        resolve_dataset_dir("no_such_dataset")


def test_resolve_missing(monkeypatch):
    monkeypatch.delenv("STKIT_DATA_DIR", raising=False)
    with pytest.raises(DatasetNotFound):
        resolve_dataset_dir("nowhere")
    with pytest.raises(DatasetNotFound):
        resolve_dataset_dir("")


# -- model/task compatibility ---------------------------------------------------


def test_model_task_table_covers_tasks():
    assert set(MODEL_TASKS.values()) == set(TASKS)


def test_incompatible_model_task(data_root, tmp_path):
    cfg = load_config(
        cli_args={
            "task": "map_matching",
            "model": "HA",
            "dataset": str(data_root / "traces"),
            "output_dir": str(tmp_path),
        }
    )
    with pytest.raises(IncompatibleModelTask):
        cmd_run(cfg)


def test_unknown_model_or_task(data_root, tmp_path):
    base = {
        "dataset": str(data_root / "flow_p4"),
        "output_dir": str(tmp_path),
    }
    with pytest.raises(BadConfigFile):
        cmd_run(load_config(cli_args={**base, "task": "traffic_state_pred",
                                      "model": "Prophet"}))
    with pytest.raises(BadConfigFile):
        cmd_run(load_config(cli_args={**base, "task": "time_travel", "model": "HA"}))
    with pytest.raises(BadConfigFile):
        cmd_run(load_config(cli_args={"task": "traffic_state_pred", "model": "HA"}))


# -- traffic state runs ----------------------------------------------------------


def test_ha_run_outputs(data_root, tmp_path):
    cfg = flow_config(data_root, tmp_path, ha_period=4)
    record = cmd_run(cfg)
    out = Path(record.output_dir)
    assert out.parent == tmp_path
    assert record.run_id == out.name
    assert record.task == "traffic_state_pred"
    assert record.dataset == "flow_p4"

    metrics = json.loads((out / "metrics.json").read_text("utf-8"))
    assert metrics == record.metrics
    assert metrics["layout"] == "graph"
    # Periodic data with the matching period: the average is exact.
    assert metrics["test"]["aggregate"]["mae"] == 0.0
    assert metrics["val"]["aggregate"]["mae"] == 0.0
    assert set(metrics["test"]["horizons"]) == {"1", "2"}
    # T=60: val 6, test 12 slots; windows of width 6.
    assert metrics["n_samples"] == {"train": 37, "val": 1, "test": 7}

    run_blob = json.loads((out / "run.json").read_text("utf-8"))
    assert run_blob["config"]["ha_period"] == 4
    assert run_blob["provenance"]["ha_period"] == "user_file"
    assert run_blob["provenance"]["task"] == "cli"
    assert run_blob["wall_time_s"] >= 0.0
    assert "wall_time_s" not in metrics

    with np.load(out / "predictions.npz", allow_pickle=False) as z:
        assert sorted(z.files) == ["mask", "prediction", "truth"]
        pred, truth, mask = z["prediction"], z["truth"], z["mask"]
    # [test samples, horizons, nodes, features]
    assert pred.shape == truth.shape == mask.shape == (7, 2, 3, 1)
    assert pred.dtype == truth.dtype == np.float64 and mask.dtype == bool
    assert pred.tobytes() == truth.tobytes()  # exact predictions


def test_metrics_byte_identical_across_reruns(data_root, tmp_path):
    a = cmd_run(flow_config(data_root, tmp_path / "a", ha_period=4))
    b = cmd_run(flow_config(data_root, tmp_path / "b", ha_period=4))
    assert a.run_id == b.run_id  # output_dir is not part of the identity
    bytes_a = (Path(a.output_dir) / "metrics.json").read_bytes()
    bytes_b = (Path(b.output_dir) / "metrics.json").read_bytes()
    assert bytes_a == bytes_b
    preds_a = (Path(a.output_dir) / "predictions.npz").read_bytes()
    preds_b = (Path(b.output_dir) / "predictions.npz").read_bytes()
    assert preds_a == preds_b  # zip entries carry a fixed date


def awkward_predictions():
    """(pred, truth, mask) of shape [B=2, t_out=2, 2 x 2 cells, 2 features]
    holding values a lossy writer would change, with one masked cell."""
    awkward = [1 / 3, 1e-300, -0.0, 1e16, 2.0**53, 123456.789012345, 0.1, -2.5]
    truth = np.array(awkward * 4).reshape(2, 2, 2, 2, 2)
    pred = -truth[::-1].copy()
    mask = np.ones(truth.shape, dtype=bool)
    mask[1, 0, 1, 0, 1] = False
    return pred, truth, mask


def test_predictions_writer_round_trip(tmp_path):
    pred, truth, mask = awkward_predictions()
    path = tmp_path / "predictions.npz"
    _write_predictions(path, pred, truth, mask)
    with np.load(path, allow_pickle=False) as z:
        assert sorted(z.files) == ["mask", "prediction", "truth"]
        for name, want in (("prediction", pred), ("truth", truth), ("mask", mask)):
            got = z[name]
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()  # bit-exact, -0.0 included
    with zipfile.ZipFile(path) as archive:
        entries = archive.infolist()
    assert [e.filename for e in entries] == ["prediction.npy", "truth.npy", "mask.npy"]
    assert all(e.date_time == (1980, 1, 1, 0, 0, 0) for e in entries)
    assert all(e.compress_type == zipfile.ZIP_DEFLATED for e in entries)


def test_predictions_writer_ignores_the_clock(tmp_path, monkeypatch):
    pred, truth, mask = awkward_predictions()
    now = time.time()
    blobs = []
    for tick in (0, 86400 * 400 + 3661):  # over a year later: every date field moves
        monkeypatch.setattr(time, "time", lambda: now + tick)
        path = tmp_path / f"p{tick}.npz"
        _write_predictions(path, pred, truth, mask)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def zipfile_writer(path, pred, truth, mask):
    """The predictions writer as it was before the per-entry strategy,
    verbatim: the oracle for entries that stay at deflate level 6."""
    arrays = {
        "prediction": np.asarray(pred, dtype=np.float64),
        "truth": np.asarray(truth, dtype=np.float64),
        "mask": np.asarray(mask, dtype=bool),
    }
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            with archive.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def npy_stream(array) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, allow_pickle=False)
    return buf.getvalue()


def deflated(data: bytes, strategy=zlib.Z_DEFAULT_STRATEGY) -> bytes:
    """Raw deflate of ``data`` at level 6, as a zip entry holds it."""
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15, 8, strategy)
    return compressor.compress(data) + compressor.flush()


def expected_strategy(data: bytes) -> int:
    """Huffman-only when level 6 saves under 10% of the first 64 KiB."""
    probe = data[: 1 << 16]
    huffman = 10 * len(deflated(probe)) > 9 * len(probe)
    return zlib.Z_HUFFMAN_ONLY if huffman else zlib.Z_DEFAULT_STRATEGY


def entry_bytes(path) -> dict[str, bytes]:
    """Each entry's compressed bytes, as they sit in the file."""
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        infos = archive.infolist()
    out = {}
    for info in infos:
        name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
        start = info.header_offset + 30 + name_len + extra_len
        out[info.filename] = blob[start : start + info.compress_size]
    return out


def assert_round_trip(path, pred, truth, mask):
    with np.load(path, allow_pickle=False) as z:
        for name, want in (("prediction", pred), ("truth", truth), ("mask", mask)):
            got = z[name]
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    with zipfile.ZipFile(path) as archive:
        assert archive.testzip() is None


def test_compressible_entries_get_the_zipfile_bytes(tmp_path):
    pred, truth, mask = (np.tile(a, (300, 1, 1, 1, 1)) for a in awkward_predictions())
    assert len(npy_stream(pred)) > 1 << 16 > len(npy_stream(mask))
    _write_predictions(tmp_path / "new.npz", pred, truth, mask)
    zipfile_writer(tmp_path / "old.npz", pred, truth, mask)
    assert (tmp_path / "new.npz").read_bytes() == (tmp_path / "old.npz").read_bytes()
    assert_round_trip(tmp_path / "new.npz", pred, truth, mask)


def test_random_floats_are_deflated_huffman_only(tmp_path):
    rng = np.random.default_rng(7)
    pred = rng.standard_normal((8, 4, 1024))  # 256 KiB
    truth = pred + rng.standard_normal(pred.shape) * 1e-3
    mask = rng.random(pred.shape) > 0.1
    path = tmp_path / "predictions.npz"
    _write_predictions(path, pred, truth, mask)
    entries = entry_bytes(path)
    for name, array in (("prediction", pred), ("truth", truth)):
        stream = npy_stream(array)
        assert entries[f"{name}.npy"] == deflated(stream, zlib.Z_HUFFMAN_ONLY)
        assert len(entries[f"{name}.npy"]) <= len(deflated(stream))
    assert entries["mask.npy"] == deflated(npy_stream(mask))  # bits compress well
    assert_round_trip(path, pred, truth, mask)
    zipfile_writer(tmp_path / "old.npz", pred, truth, mask)
    assert path.stat().st_size < (tmp_path / "old.npz").stat().st_size


@pytest.mark.parametrize("stream_len", [65535, 65536, 65537])
def test_entries_at_the_probe_length_get_the_zipfile_bytes(tmp_path, stream_len):
    header = len(npy_stream(np.zeros(stream_len, dtype=bool))) - stream_len
    mask = np.arange(stream_len - header) % 7 != 3
    assert len(npy_stream(mask)) == stream_len
    pred, truth = np.zeros(3), np.ones(3)
    _write_predictions(tmp_path / "new.npz", pred, truth, mask)
    zipfile_writer(tmp_path / "old.npz", pred, truth, mask)
    assert (tmp_path / "new.npz").read_bytes() == (tmp_path / "old.npz").read_bytes()
    assert_round_trip(tmp_path / "new.npz", pred, truth, mask)


@pytest.mark.parametrize("length", [100, 65535, 65536, 65537, 200_000])
@pytest.mark.parametrize("kind", ["random", "pattern"])
@pytest.mark.parametrize("chunk", [None, 128, 1000, 65536])
def test_deflate_sink_streams_the_chosen_strategy(length, kind, chunk):
    if kind == "random":
        data = np.random.default_rng(length).bytes(length)
    else:
        data = (b"stkit predictions " * (length // 18 + 1))[:length]
    want = zlib.Z_HUFFMAN_ONLY if kind == "random" else zlib.Z_DEFAULT_STRATEGY
    assert expected_strategy(data) == want
    out = io.BytesIO()
    sink = runner._DeflateSink(out)
    step = chunk or length
    for at in range(0, length, step):
        assert sink.write(data[at : at + step]) == len(data[at : at + step])
        written = min(at + step, length)
        if written < 1 << 16:  # the probe is held back until it is full
            assert out.getvalue() == b""
        elif kind == "random":
            assert out.getvalue() != b""
    sink.close()
    assert out.getvalue() == deflated(data, want)
    assert (sink.crc, sink.size, sink.csize) == (zlib.crc32(data), length, len(out.getvalue()))


@pytest.mark.parametrize(
    "alphabet, want",
    # Level 6 saves 12% of random bytes from 128 values and 7.6% from 160.
    [(128, zlib.Z_DEFAULT_STRATEGY), (160, zlib.Z_HUFFMAN_ONLY)],
)
def test_huffman_only_below_a_tenth_saved(alphabet, want):
    data = np.random.default_rng(alphabet).integers(0, alphabet, 200_000, np.uint8).tobytes()
    assert expected_strategy(data) == want
    out = io.BytesIO()
    sink = runner._DeflateSink(out)
    sink.write(data)
    sink.close()
    assert out.getvalue() == deflated(data, want)


# 3 GiB is past zipfile's zip64 limit of 2 GiB - 1, but fits 32 bits.
@pytest.mark.parametrize("big", [3 << 30, 5 << 30])
def test_central_record_moves_large_values_to_a_zip64_extra(big):
    record = runner._central_record(b"prediction.npy", 0x1234ABCD, big, big - 7, big + 9)
    fields = struct.unpack_from("<4s4B4HL2L5H2L", record)
    assert fields[:9] == (b"PK\x01\x02", 45, 3, 45, 0, 0, 8, 0, 0x21)
    crc, csize, size, name_len, extra_len = fields[9:14]
    assert (crc, csize, size, fields[18]) == (0x1234ABCD, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
    assert fields[17] == 0o600 << 16
    assert record[46 : 46 + name_len] == b"prediction.npy"
    assert struct.unpack("<HH3Q", record[46 + name_len :]) == (1, 24, big, big - 7, big + 9)
    assert extra_len == 28
    # Only the offset is large: the extra holds the offset alone.
    record = runner._central_record(b"mask.npy", 1, 10, 5, big)
    fields = struct.unpack_from("<4s4B4HL2L5H2L", record)
    assert (fields[10], fields[11], fields[13], fields[18]) == (5, 10, 12, 0xFFFFFFFF)
    assert struct.unpack("<HHQ", record[46 + 8 :]) == (1, 8, big)
    # Nothing is large: no extra.
    record = runner._central_record(b"mask.npy", 1, 10, 5, 7)
    assert len(record) == 46 + 8 and struct.unpack_from("<4s4B4HL2L5H2L", record)[18] == 7


@pytest.mark.parametrize("big", [3 << 30, 5 << 30])
def test_end_records_add_zip64_records_past_the_limit(big):
    records = runner._end_records(3, big, 200)
    assert struct.unpack_from("<4sQ2H2L4Q", records) == (
        b"PK\x06\x06", 44, 45, 45, 0, 0, 3, 3, 200, big
    )
    assert struct.unpack_from("<4sLQL", records, 56) == (b"PK\x06\x07", 0, big + 200, 1)
    assert struct.unpack_from("<4s4H2LH", records, 76) == (
        b"PK\x05\x06", 0, 0, 3, 3, 200, min(big, 0xFFFFFFFF), 0
    )
    assert len(records) == 98
    assert runner._end_records(3, 1000, 200) == struct.pack(
        "<4s4H2LH", b"PK\x05\x06", 0, 0, 3, 3, 200, 1000, 0
    )


def failing_writer(path, *arrays):
    """A predictions writer that dies after writing part of its file."""
    path.write_bytes(b"half")
    raise OSError("disk full")


def test_failed_write_leaves_no_run(data_root, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_write_predictions", failing_writer)
    with pytest.raises(OSError, match="disk full"):
        cmd_run(flow_config(data_root, tmp_path, ha_period=4))
    assert list(tmp_path.iterdir()) == []  # no run and no staging directory
    assert load_runs(tmp_path) == []


def test_failed_rerun_keeps_the_older_run(data_root, tmp_path, monkeypatch):
    record = cmd_run(flow_config(data_root, tmp_path, ha_period=4))
    before = run_outputs(Path(record.output_dir))
    monkeypatch.setattr(runner, "_write_predictions", failing_writer)
    with pytest.raises(OSError, match="disk full"):
        cmd_run(flow_config(data_root, tmp_path, ha_period=4))
    assert [p.name for p in tmp_path.iterdir()] == [record.run_id]
    assert run_outputs(Path(record.output_dir)) == before


def test_rerun_replaces_the_older_run(data_root, tmp_path):
    cfg = flow_config(data_root, tmp_path, ha_period=4)
    out = Path(cmd_run(cfg).output_dir)
    (out / "stale.txt").write_text("from an older run", "utf-8")
    # A staging directory left behind by a killed run.
    staging = out.with_name(out.name + runner.STAGING_SUFFIX)
    staging.mkdir()
    (staging / "run.json").write_text("{}", "utf-8")
    (staging / "metrics.json").write_text("{}", "utf-8")
    assert len(load_runs(tmp_path)) == 1  # the leaderboard skips staging
    record = cmd_run(cfg)
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json", "predictions.npz", "run.json"
    ]
    assert load_runs(tmp_path)[0]["run_id"] == record.run_id


def test_run_id_sensitivity():
    base = {"seed": 0, "var_order": 1, "output_dir": "x", "config_file": None}
    a = _run_id("t", "m", "ds", 0, base)
    b = _run_id("t", "m", "ds", 0, {**base, "output_dir": "y"})
    c = _run_id("t", "m", "ds", 0, {**base, "var_order": 2})
    d = _run_id("t", "m", "ds", 1, base)
    assert a == b
    assert a != c
    assert a != d
    assert a.startswith("t_m_ds_s0_")


def test_var_run_learns_recurrence(data_root, tmp_path):
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "VAR",
            "dataset": str(data_root / "flow_var"),
            "output_dir": str(tmp_path),
        },
        file_values={"input_window": 4, "output_window": 2, "horizons": [1]},
    )
    record = cmd_run(cfg)
    # Noiseless VAR data: the refit model forecasts almost exactly.
    assert record.metrics["test"]["aggregate"]["mae"] < 1e-6


def test_persistence_run(data_root, tmp_path):
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "Persistence",
            "dataset": str(data_root / "flow_p4"),
            "output_dir": str(tmp_path),
        },
        file_values={"input_window": 4, "output_window": 2},
    )
    record = cmd_run(cfg)
    assert record.metrics["test"]["aggregate"]["mae"] > 0.0
    assert record.metrics["n_samples"]["test"] == 7


def test_unsplittable_series_fails_before_the_scaler(data_root, tmp_path, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("the scaler was fitted before the split was checked")

    monkeypatch.setattr("stkit.runner.fit_scaler", no_fit)
    # 60 slots at val 0.01 floor to an empty validation segment.
    cfg = flow_config(data_root, tmp_path, train_ratio=0.79, val_ratio=0.01)
    with pytest.raises(EmptySegment):
        cmd_run(cfg)


def test_grid_run_layout_and_scaler(data_root, tmp_path):
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "HA",
            "dataset": str(data_root / "grid_p4"),
            "output_dir": str(tmp_path),
        },
        file_values={
            "input_window": 4,
            "output_window": 2,
            "ha_period": 4,
            "scaler": "zscore",
        },
    )
    record = cmd_run(cfg)
    assert record.metrics["layout"] == "grid"
    # Scaling is inverted before scoring, so exactness survives.
    assert record.metrics["test"]["aggregate"]["mae"] < 1e-9


# -- dense size checks ------------------------------------------------------------


@pytest.fixture
def memory(monkeypatch):
    """Sets this machine's memory, in bytes, as the size checks see it."""
    return lambda size: monkeypatch.setattr(runner, "_memory_bytes", lambda: size)


def size_case(layout, slots):
    """A table of ``layout`` with one record at each of ``slots`` (300 s
    apart), over 3 entities or a 3 x 3 grid, its time axis and spatial shape."""
    t0 = datetime(2021, 3, 1, tzinfo=timezone.utc)
    recs = []
    for n, slot in enumerate(slots):
        t, i, j = t0 + timedelta(seconds=300 * slot), n % 3, (n + 1) % 3
        if layout == "graph":
            recs.append(DynaRecord(f"d{n}", "state", t, f"g{i}", None, {"a": 1.0}))
        elif layout == "grid":
            recs.append(GridRecord(f"d{n}", "state", t, i, j, {"a": 1.0}))
        else:
            recs.append(ODRecord(f"d{n}", "state", t, f"g{i}", f"g{j}", {"a": 1.0}))
    kind = "dyna" if layout == "graph" else layout
    axis = build_time_axis([r.time for r in recs], 300)
    return Table.from_records(kind, recs), axis, (3,) if layout == "graph" else (3, 3)


@pytest.mark.parametrize("layout", ["graph", "grid", "od"])
def test_size_check_names_the_time_span_at_its_far_stamp(layout, memory):
    table, axis, shape = size_case(layout, [1, 0, 2, 40, 2])
    cells = math.prod(shape)
    memory(9 * 41 * cells - 1)
    with pytest.raises(TensorTooLarge) as err:
        runner._check_tensor_fits(layout, table, axis, shape, 1)
    assert str(err.value) == (
        f"the time span 2021-03-01T00:00:00Z to 2021-03-01T03:20:00Z (41 slots of 300s) "
        f"over {cells} cells needs {9 * 41 * cells} bytes as a dense tensor, more than the "
        f"{9 * 41 * cells - 1} bytes of memory (table={table.kind}, row=4, column=time)"
    )
    table, axis, shape = size_case(layout, [0, 40, 41])  # the first stamp is the far one
    with pytest.raises(TensorTooLarge, match=r"\(table=\w+, row=1, column=time\)$"):
        runner._check_tensor_fits(layout, table, axis, shape, 1)
    memory(9 * 42 * cells)
    runner._check_tensor_fits(layout, table, axis, shape, 1)


def test_size_check_names_the_larger_grid_side(memory):
    table, axis, _ = size_case("grid", [0])
    memory(80)
    for shape, key in (((4, 3), "grid_rows"), ((3, 4), "grid_cols"), ((3, 3), "grid_rows")):
        with pytest.raises(TensorTooLarge) as err:
            runner._check_tensor_fits("grid", table, axis, shape, 1)
        assert str(err.value) == (
            f"a {shape[0]} x {shape[1]} grid over 1 slots needs {9 * shape[0] * shape[1]} "
            f"bytes as a dense tensor, more than the 80 bytes of memory "
            f"(table=manifest, column={key})"
        )


@pytest.mark.parametrize("layout", ["graph", "od"])
def test_size_check_names_the_geo_ordering(layout, memory):
    table, axis, shape = size_case(layout, [0, 1])
    memory(9 * 2 * math.prod(shape) - 1)
    with pytest.raises(TensorTooLarge) as err:
        runner._check_tensor_fits(layout, table, axis, shape, 1)
    assert str(err.value).startswith(f"the {layout} tensor of 3 entities over 2 slots needs ")
    assert err.value.table == "geo"


def test_ha_period_table_past_memory_fails_before_the_fit(data_root, tmp_path, memory):
    # flow_p4: 60 slots, 3 nodes, 1 feature; its tensor needs 9 * 60 * 3 bytes.
    memory(25 * 1000 * 3 - 1)
    with pytest.raises(BadModelParams) as err:
        cmd_run(flow_config(data_root, tmp_path, ha_period=1000))
    assert str(err.value) == (
        "config key ha_period: a [1000, 3, 1] period table needs 75000 bytes as a dense "
        "tensor, more than the 74999 bytes of memory"
    )
    assert not any(tmp_path.iterdir())
    memory(25 * 1000 * 3)
    assert cmd_run(flow_config(data_root, tmp_path, ha_period=1000)).metrics["layout"] == "graph"


# -- map matching runs -----------------------------------------------------------


def test_matching_run_zero_noise(data_root, tmp_path):
    cfg = load_config(
        cli_args={
            "task": "map_matching",
            "model": "HMM",
            "dataset": str(data_root / "traces"),
            "output_dir": str(tmp_path),
        }
    )
    record = cmd_run(cfg)
    m = record.metrics
    assert m["n_trajectories"] == 3
    assert m["n_breaks"] == 0
    assert m["aggregate"]["rmf"] == 0.0
    assert m["aggregate"]["an"] == 1.0
    assert m["aggregate"]["al"] == 1.0
    truth = json.loads(
        (data_root / "traces" / TRUTH_ROUTES_FILE).read_text("utf-8")
    )
    for user, entry in m["per_trajectory"].items():
        assert entry["route"] == truth[user]
        assert entry["metrics"]["rmf"] == 0.0

    matched_path = Path(record.output_dir) / "traces_matched.dyna"
    records = parse_table("dyna", matched_path.read_bytes())
    assert len(records) == m["n_points"]
    assert all(r.dyna_type == "trajectory" for r in records)
    assert records[0].location in truth[records[0].entity_id]


def test_matching_aggregate_pools_trajectory_scores_in_order(tmp_path):
    """Each pooled length is the left-to-right sum of the per-trajectory
    values in trajectory order, bit for bit, and RMF, AN and AL follow from
    the pooled sums. On this seed the pooled ``d_true`` differs when summed
    in reverse, and matching is imperfect (RMF > 0, AN < 1)."""
    save_synthetic(
        generate_synthetic(
            "trajectories",
            {"n": 5, "n_trajectories": 12, "route_segments": 6,
             "noise_sigma_m": 60.0, "name": "noisy12"},
            seed=4,
        ),
        tmp_path / "noisy12",
    )
    cfg = load_config(
        cli_args={"task": "map_matching", "model": "HMM",
                  "dataset": str(tmp_path / "noisy12"), "output_dir": str(tmp_path / "out")},
        file_values={"match_sigma": 5.0},
    )
    m = cmd_run(cfg).metrics
    scores = [entry["metrics"] for entry in m["per_trajectory"].values()]
    assert len(scores) == 12
    pooled = {}
    for key in ("d_true", "d_subtracted", "d_added", "d_correct", "n_correct", "n_true"):
        pooled[key] = 0.0 if key.startswith("d_") else 0
        for s in scores:
            pooled[key] += s[key]
    agg = m["aggregate"]
    for key in ("d_true", "d_subtracted", "d_added", "d_correct"):
        assert agg[key] == pooled[key], key
    assert agg["rmf"] == (pooled["d_subtracted"] + pooled["d_added"]) / pooled["d_true"]
    assert agg["an"] == pooled["n_correct"] / pooled["n_true"]
    assert agg["al"] == pooled["d_correct"] / pooled["d_true"]
    assert agg["rmf"] > 0.0 and agg["an"] < 1.0
    reverse = 0.0
    for s in scores[::-1]:
        reverse += s["d_true"]
    assert reverse != agg["d_true"]


def test_matching_run_without_truth(data_root, tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    src = data_root / "traces"
    for p in src.iterdir():
        if p.name != TRUTH_ROUTES_FILE:
            (bare / p.name).write_bytes(p.read_bytes())
    cfg = load_config(
        cli_args={
            "task": "map_matching",
            "model": "HMMM",
            "dataset": str(bare),
            "output_dir": str(tmp_path / "out"),
        }
    )
    record = cmd_run(cfg)
    assert "aggregate" not in record.metrics
    assert record.metrics["per_trajectory"]


# -- ranking runs ----------------------------------------------------------------


def test_ranking_run(data_root, tmp_path):
    cfg = load_config(
        cli_args={
            "task": "eval_ranking",
            "model": "Popularity",
            "dataset": str(data_root / "checkins"),
            "output_dir": str(tmp_path),
        },
    )
    record = cmd_run(cfg)
    m = record.metrics
    assert m["n_trajectories"] == {"train": 9, "val": 3, "test": 3}
    for split in ("val", "test"):
        assert 0.0 <= m[split]["recall_at_k"] <= 1.0
        assert m[split]["k"] == 5
        assert m[split]["n_cases"] == 12  # 3 pieces x 4 located points
    assert m["n_locations_ranked"] >= 2


def test_ranking_run_scores_as_over_the_full_ranking(data_root, tmp_path, monkeypatch):
    """The run hands ranking_metrics each case's top k only, which is all it
    reads; the metrics equal those over the whole ranked list."""
    splits = {}

    def recording_split(pieces, spec):
        splits.update(split_per_user(pieces, spec))
        return splits

    monkeypatch.setattr(runner, "split_per_user", recording_split)
    cfg = load_config(
        cli_args={
            "task": "eval_ranking",
            "model": "Popularity",
            "dataset": str(data_root / "checkins"),
            "output_dir": str(tmp_path),
        },
        file_values={"ranking_k": 2},
    )
    metrics = cmd_run(cfg).metrics
    counts = Counter(loc for loc in splits["train"].values("location") if loc)
    ranked = sorted(counts, key=lambda loc: (-counts[loc], loc))
    assert metrics["n_locations_ranked"] == len(ranked) > 2
    for split in ("val", "test"):
        cases = [(loc, ranked) for loc in splits[split].values("location") if loc]
        assert metrics[split] == ranking_metrics(cases, 2)


# -- tuning ----------------------------------------------------------------------


def test_tune_grid_search(data_root, tmp_path):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"var_order": {"values": [1, 2]}}), "utf-8")
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "VAR",
            "dataset": str(data_root / "flow_var"),
            "output_dir": str(tmp_path / "runs"),
            "space_file": str(space_path),
        },
        file_values={"input_window": 4, "output_window": 2},
    )
    result = cmd_tune(cfg)
    assert len(result.trials) == 2
    assert [t.params for t in result.trials] == [{"var_order": 1}, {"var_order": 2}]

    tune_dirs = [p for p in (tmp_path / "runs").iterdir() if p.name.startswith("tune_")]
    assert len(tune_dirs) == 1
    blob = json.loads((tune_dirs[0] / "search.json").read_text("utf-8"))
    assert blob["algorithm"] == "GridSearch"
    assert blob["n_trials"] == 2
    assert blob["best_objective"] == min(t["objective"] for t in blob["trials"])
    best_rescan = min(blob["trials"], key=lambda t: (t["objective"], t["index"]))
    assert blob["best_trial"] == best_rescan["index"]
    assert blob["best_params"] == result.best.params
    for i, t in enumerate(blob["trials"]):
        trial_dir = Path(t["output_dir"])
        assert trial_dir == tune_dirs[0] / f"trial_{i:03d}" / t["run_id"]
        assert (trial_dir / "metrics.json").is_file()
        run_blob = json.loads((trial_dir / "run.json").read_text("utf-8"))
        assert run_blob["provenance"]["var_order"] == "search"
        # The tuned objective is the task default, validation MAE.
        trial_metrics = json.loads((trial_dir / "metrics.json").read_text("utf-8"))
        assert t["objective"] == trial_metrics["val"]["aggregate"]["mae"]


def strict_json(path: Path):
    """``path`` parsed as standard JSON: a NaN or Infinity token fails."""

    def reject(token):
        raise ValueError(f"{token} is not standard JSON")

    return json.loads(path.read_text("utf-8"), parse_constant=reject)


@pytest.mark.parametrize(
    "floors, best",
    # Every value of flow_p4 is under a MAPE floor of 1e9, so those trials'
    # MAPE objective is not finite and sorts last.
    [([1e9, 0.0, 1e9], 1), ([1e9, 1e9], 0)],
)
def test_search_json_writes_a_non_finite_objective_as_null(data_root, tmp_path, floors, best):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps({"mape_floor": {"values": floors}}), "utf-8")
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "HA",
            "dataset": str(data_root / "flow_p4"),
            "output_dir": str(tmp_path / "runs"),
            "space_file": str(space_path),
        },
        file_values={"input_window": 4, "output_window": 2, "ha_period": 4,
                     "objective": "val.aggregate.mape"},
    )
    result = cmd_tune(cfg)
    (search,) = (tmp_path / "runs").glob("tune_*/search.json")
    blob = strict_json(search)
    objectives = [t.objective for t in result.trials]
    assert [t["objective"] for t in blob["trials"]] == [
        o if math.isfinite(o) else None for o in objectives
    ]
    assert [o == math.inf for o in objectives] == [f == 1e9 for f in floors]
    assert blob["best_trial"] == result.best.index == best
    assert blob["best_objective"] == blob["trials"][best]["objective"]


def test_tune_requires_space(data_root, tmp_path):
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "VAR",
            "dataset": str(data_root / "flow_var"),
            "output_dir": str(tmp_path),
        }
    )
    with pytest.raises(BadConfigFile):
        cmd_tune(cfg)
    bad_space = tmp_path / "space.json"
    bad_space.write_text("[1]", "utf-8")
    cfg2 = load_config(
        cli_args={**{k: cfg[k] for k in ("task", "model", "dataset", "output_dir")},
                  "space_file": str(bad_space)},
    )
    with pytest.raises(BadConfigFile):
        cmd_tune(cfg2)


def test_tune_random_search(data_root, tmp_path):
    space_path = tmp_path / "space.json"
    space_path.write_text(
        json.dumps({"var_ridge": {"low": 1e-10, "high": 1e-6, "log": True}}), "utf-8"
    )
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": "VAR",
            "dataset": str(data_root / "flow_var"),
            "output_dir": str(tmp_path / "runs"),
            "space_file": str(space_path),
            "search_alg": "RandomSearch",
        },
        file_values={"input_window": 4, "output_window": 2, "n_trials": 3},
    )
    result = cmd_tune(cfg)
    assert len(result.trials) == 3
    assert all(1e-10 <= t.params["var_ridge"] <= 1e-6 for t in result.trials)


@pytest.fixture(scope="module")
def noisy_traces(tmp_path_factory):
    """Traces noisy enough that match_sigma 5 m mismatches (rmf > 0) and 50 m
    does not."""
    root = tmp_path_factory.mktemp("noisy")
    save_synthetic(
        generate_synthetic(
            "trajectories",
            {"n": 3, "n_trajectories": 3, "route_segments": 5,
             "noise_sigma_m": 60.0, "name": "noisy"},
            seed=3,
        ),
        root / "noisy",
    )
    return root / "noisy"


def tune_trials(tmp_path, task, model, dataset, space, **file_values):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space), "utf-8")
    cfg = load_config(
        cli_args={
            "task": task,
            "model": model,
            "dataset": str(dataset),
            "output_dir": str(tmp_path / "runs"),
            "space_file": str(space_path),
        },
        file_values=file_values,
    )
    result = cmd_tune(cfg)
    return result, [(t.objective, t.record.metrics) for t in result.trials]


def test_tune_default_objective_map_matching(noisy_traces, tmp_path):
    result, trials = tune_trials(
        tmp_path, "map_matching", "HMM", noisy_traces,
        {"match_sigma": {"values": [5.0, 50.0]}},
    )
    assert [obj for obj, m in trials] == [m["aggregate"]["rmf"] for _, m in trials]
    assert trials[0][0] > trials[1][0]  # smaller rmf is better
    assert result.best.params == {"match_sigma": 50.0}


def test_tune_default_objective_eval_ranking(data_root, tmp_path):
    result, trials = tune_trials(
        tmp_path, "eval_ranking", "Popularity", data_root / "checkins",
        {"ranking_k": {"values": [1, 5]}},
    )
    # Larger recall is better, so the minimized objective is its negation.
    assert [obj for obj, m in trials] == [-m["val"]["recall_at_k"] for _, m in trials]
    assert trials[0][1]["val"]["recall_at_k"] < trials[1][1]["val"]["recall_at_k"]
    assert result.best.params == {"ranking_k": 5}


def test_tune_user_objective_is_minimized_as_given(data_root, tmp_path):
    result, trials = tune_trials(
        tmp_path, "eval_ranking", "Popularity", data_root / "checkins",
        {"ranking_k": {"values": [1, 5]}}, objective="val.recall_at_k",
    )
    assert [obj for obj, m in trials] == [m["val"]["recall_at_k"] for _, m in trials]
    assert result.best.params == {"ranking_k": 1}


def test_tune_missing_objective_path(data_root, tmp_path):
    with pytest.raises(BadConfigFile, match="objective path 'val.aggregate.nope'"):
        tune_trials(
            tmp_path, "traffic_state_pred", "HA", data_root / "flow_p4",
            {"ha_period": {"values": [4]}},
            input_window=4, output_window=2, objective="val.aggregate.nope",
        )
    # The objective is read before trial 0 writes anything.
    assert not list(tmp_path.glob("**/trial_*"))
    with pytest.raises(NoResults):
        build_leaderboard(load_runs(tmp_path / "runs"), "traffic_state_pred")


def run_outputs(run_dir: Path) -> dict[str, bytes]:
    """Every output of a run directory but run.json."""
    return {
        p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name != "run.json"
    }


def assert_trials_match_standalone_runs(result, tmp_path, task, model, file_values):
    """Each tune trial wrote what a standalone run with its config writes."""
    for trial in result.trials:
        values = {**file_values, **trial.params}
        cfg = load_config(
            cli_args={
                "task": task,
                "model": model,
                "dataset": values.pop("dataset", trial.record.config["dataset"]),
                "output_dir": str(tmp_path / "alone" / str(trial.index)),
            },
            file_values=values,
        )
        alone = cmd_run(cfg)
        assert run_outputs(Path(trial.record.output_dir)) == run_outputs(
            Path(alone.output_dir)
        )


@pytest.mark.parametrize(
    "task, model, dataset, space, file_values",
    [
        (
            "traffic_state_pred", "VAR", "flow_var",
            # A searched scaler would expose a trial writing into the
            # tensor that the trials share.
            {"scaler": {"values": ["zscore", "none", "minmax"]},
             "var_order": {"values": [1, 2]}},
            {"input_window": 4, "output_window": 2},
        ),
        ("map_matching", "HMM", "traces", {"match_sigma": {"values": [5.0, 50.0]}}, {}),
        ("eval_ranking", "Popularity", "checkins", {"ranking_k": {"values": [1, 5]}}, {}),
    ],
    ids=["traffic_state_pred", "map_matching", "eval_ranking"],
)
def test_tune_trials_match_standalone_runs(
    data_root, tmp_path, task, model, dataset, space, file_values
):
    result, _ = tune_trials(tmp_path, task, model, data_root / dataset, space, **file_values)
    assert len(result.trials) == np.prod([len(d["values"]) for d in space.values()])
    assert_trials_match_standalone_runs(result, tmp_path, task, model, file_values)


def test_tune_loads_each_searched_dataset_once(data_root, tmp_path, monkeypatch):
    loads = []

    def counting_load(ds_dir, *args, **kwargs):
        loads.append(Path(ds_dir).name)
        return load_dataset(ds_dir, *args, **kwargs)

    load_dataset = runner.load_dataset
    monkeypatch.setattr(runner, "load_dataset", counting_load)
    dirs = [str(data_root / "flow_p4"), str(data_root / "flow_var")]
    file_values = {"input_window": 4, "output_window": 2}
    result, _ = tune_trials(
        tmp_path, "traffic_state_pred", "VAR", dirs[0],
        {"dataset": {"values": dirs}, "var_order": {"values": [1, 2]}},
        **file_values,
    )
    assert len(result.trials) == 4
    assert sorted(loads) == ["flow_p4", "flow_var"]
    assert_trials_match_standalone_runs(
        result, tmp_path, "traffic_state_pred", "VAR", file_values
    )


def test_tune_over_match_sigma_builds_one_network_and_route_table(
    data_root, tmp_path, monkeypatch
):
    """The trials share the prepared road network, its route table and its
    segment boxes, at every searched radius, and each writes what its
    standalone run writes."""
    from stkit import mapmatch

    built = {"network": 0, "table": 0}

    def counting_build(*args, **kwargs):
        built["network"] += 1
        return build_road_network(*args, **kwargs)

    def counting_table(*args, **kwargs):
        built["table"] += 1
        return route_table(*args, **kwargs)

    build_road_network, route_table = runner.build_road_network, mapmatch._RouteTable
    monkeypatch.setattr(runner, "build_road_network", counting_build)
    monkeypatch.setattr(mapmatch, "_RouteTable", counting_table)
    result, _ = tune_trials(
        tmp_path, "map_matching", "HMM", data_root / "traces",
        {"match_sigma": {"values": [5.0, 50.0]},
         "match_radius": {"values": [1e-9, 40.0, 200.0]}},
    )
    assert len(result.trials) == 6
    assert built == {"network": 1, "table": 1}
    assert_trials_match_standalone_runs(result, tmp_path, "map_matching", "HMM", {})


def test_prepared_tensor_and_mask_are_read_only(data_root, tmp_path):
    prepared: dict = {}
    cmd_run(flow_config(data_root, tmp_path, ha_period=4), prepared)
    ((key, (tensor, mask)),) = prepared.items()
    assert key == ("traffic_state_pred", (data_root / "flow_p4").resolve())
    for array in (tensor.values, mask.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            np.add(array, 1, out=array, casting="unsafe")


# -- validate / convert / stats ----------------------------------------------------


def test_cmd_validate_clean_and_broken(data_root, tmp_path):
    cfg = load_config(cli_args={"dataset": str(data_root / "flow_p4")})
    report = cmd_validate(cfg)
    assert report.ok
    broken_dir = tmp_path / "broken"
    broken_dir.mkdir()
    for p in (data_root / "flow_p4").iterdir():
        (broken_dir / p.name).write_bytes(p.read_bytes())
    rel_file = broken_dir / "flow_p4.rel"
    text = rel_file.read_text("utf-8")
    rel_file.write_text(text + "r999,geo,g0,g999\n", "utf-8")  # dangling ref
    report2 = cmd_validate(load_config(cli_args={"dataset": str(broken_dir)}))
    assert not report2.ok
    with pytest.raises(ValidationFailed):
        cmd_run(
            load_config(
                cli_args={
                    "task": "traffic_state_pred",
                    "model": "HA",
                    "dataset": str(broken_dir),
                    "output_dir": str(tmp_path / "out"),
                },
                file_values={"input_window": 4, "output_window": 2},
            )
        )


def test_cmd_convert(tmp_path):
    raw = tmp_path / "sensors.csv"
    raw.write_text(
        "sensor,ts,speed\n"
        "s1,2024-01-01T00:00:00Z,60.0\n"
        "s1,2024-01-01T00:30:00Z,61.5\n"
        "s2,2024-01-01T00:00:00Z,55.0\n",
        "utf-8",
    )
    cfg_file = tmp_path / "convert.json"
    cfg_file.write_text(
        json.dumps(
            {
                "conversion": {
                    "target": "state",
                    "time_column": "ts",
                    "entity_column": "sensor",
                    "property_columns": ["speed"],
                    "name": "speeds",
                }
            }
        ),
        "utf-8",
    )
    cfg = load_config(
        cli_args={
            "dataset": str(raw),
            "config_file": str(cfg_file),
            "output_dir": str(tmp_path / "converted"),
        }
    )
    out = cmd_convert(cfg)
    assert out == tmp_path / "converted" / "speeds"
    assert (out / "speeds.dyna").is_file()
    stats = cmd_stats(load_config(cli_args={"dataset": str(out)}))
    assert stats["tables"]["dyna"] == 3
    assert stats["tables"]["geo"] == 2


def test_cmd_convert_errors(tmp_path):
    cfg = load_config(cli_args={"dataset": str(tmp_path / "nope.csv")})
    with pytest.raises(DatasetNotFound):
        cmd_convert(cfg)
    raw = tmp_path / "x.csv"
    raw.write_text("a,b\n1,2\n", "utf-8")
    with pytest.raises(BadConfigFile):
        cmd_convert(load_config(cli_args={"dataset": str(raw)}))


def test_cmd_stats(data_root):
    stats = cmd_stats(load_config(cli_args={"dataset": str(data_root / "flow_p4")}))
    assert stats["name"] == "flow_p4"
    assert stats["tables"]["geo"] == 3
    assert stats["tables"]["dyna"] == 180
    assert stats["interval_seconds"] == 1800
    assert stats["features"] == ["flow"]


# -- runs read tables as columns ---------------------------------------------------


RECORD_TYPES = (
    GeoUnit, UserUnit, RelationRecord, DynaRecord, GridRecord, ODRecord, GridODRecord,
    ExtRecord,
)


def count_records(monkeypatch) -> list[str]:
    """From here on, the type name of every record built is appended to the list."""
    built: list[str] = []
    for cls in RECORD_TYPES:

        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def run_config(data_root, out, task, model, dataset):
    file_values = {}
    if task == "traffic_state_pred":
        file_values = {"input_window": 4, "output_window": 2, "ha_period": 4}
    return load_config(
        cli_args={
            "task": task,
            "model": model,
            "dataset": str(data_root / dataset),
            "output_dir": str(out),
        },
        file_values=file_values,
    )


@pytest.mark.parametrize(
    "task, model, dataset",
    [
        ("traffic_state_pred", "HA", "flow_p4"),
        ("traffic_state_pred", "HA", "grid_p4"),
        ("map_matching", "HMM", "traces"),
        ("eval_ranking", "Popularity", "checkins"),
    ],
)
def test_run_builds_no_records(data_root, tmp_path, monkeypatch, task, model, dataset):
    built = count_records(monkeypatch)
    cmd_run(run_config(data_root, tmp_path, task, model, dataset))
    assert built == []
    for table in runner.load_dataset(data_root / dataset).tables().values():
        built.clear()
        list(table)  # records are built when asked for, and counted
        assert len(built) == len(table) > 0


@pytest.mark.parametrize(
    "task, model, dataset",
    [
        ("traffic_state_pred", "HA", "flow_p4"),
        ("traffic_state_pred", "VAR", "grid_p4"),
        ("map_matching", "HMM", "traces"),
    ],
)
def test_columns_and_record_lists_write_the_same_run(
    data_root, tmp_path, monkeypatch, task, model, dataset
):
    columns = cmd_run(run_config(data_root, tmp_path / "a", task, model, dataset))
    load_dataset = runner.load_dataset

    def load_record_lists(path, *args, **kwargs):
        ds = load_dataset(path, *args, **kwargs)
        return replace(ds, **{kind: list(table) for kind, table in ds.tables().items()})

    monkeypatch.setattr(runner, "load_dataset", load_record_lists)
    records = cmd_run(run_config(data_root, tmp_path / "b", task, model, dataset))
    outputs = run_outputs(Path(columns.output_dir))
    assert outputs == run_outputs(Path(records.output_dir))
    assert any(name.endswith((".npz", "_matched.dyna")) for name in outputs)


def test_wall_time_covers_the_artifact_writes(data_root, tmp_path, monkeypatch):
    write = runner._write_predictions

    def slow_write(*args):
        time.sleep(0.2)
        write(*args)

    monkeypatch.setattr(runner, "_write_predictions", slow_write)
    record = cmd_run(flow_config(data_root, tmp_path, ha_period=4))
    run_blob = json.loads((Path(record.output_dir) / "run.json").read_text("utf-8"))
    assert run_blob["wall_time_s"] == record.wall_time_s >= 0.2
