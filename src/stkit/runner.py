"""Experiment runner: one entry point per harness command.

``cmd_run`` executes a (task, model, dataset) triple end to end and persists
a run directory; ``cmd_tune`` wraps it in a hyper-parameter search. Runs are
deterministic in (config, seed): rerunning writes byte-identical metrics.
Wall-clock time is recorded in run.json only, never in metrics.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
import time
import zlib
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .atomic import HUGE, NUMBER, TEXT, Table, _ids, format_timestamp, write_table
from .baselines import HAModel, PersistenceModel, VARModel, ha_fit, var_fit
from .config import Config, check_keys, read_json_object, write_json
from .dataset import (
    AtomicDataset,
    RawConversionSpec,
    convert_raw_csv,
    dataset_stats,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from .evaluate import (
    check_horizons,
    evaluate_forecast,
    jsonify_metrics,
    match_metrics,
    ranking_metrics,
)
from .exceptions import (
    BadConfigFile,
    BadFieldValue,
    BadMatchParams,
    BadModelParams,
    BadPipelineParams,
    DatasetNotFound,
    EmptyTable,
    HorizonOutOfRange,
    IncompatibleModelTask,
    TensorTooLarge,
)
from .mapmatch import MatchParams, build_road_network, viterbi_match
from .pipeline import (
    Scaler,
    SplitSpec,
    TrajWindowSpec,
    Windows,
    WindowSpec,
    cut_trajectories,
    filter_trajectories,
    fit_scaler,
    make_batches,
    split_chronological,
    split_per_user,
    split_windows,
)
from .search import grid_candidates, parse_space, random_candidates, run_search
from .synthetic import TRUTH_ROUTES_FILE
from .tensorize import (
    MaskTensor,
    STTensor,
    Trajectories,
    build_time_axis,
    build_trajectories,
    dyna_to_graph_tensor,
    grid_to_tensor,
    od_to_tensor,
)

__all__ = [
    "TaskSpec",
    "TASK_TABLE",
    "TASKS",
    "MODEL_TASKS",
    "metric_at",
    "RunRecord",
    "resolve_dataset_dir",
    "cmd_run",
    "cmd_tune",
    "cmd_validate",
    "cmd_convert",
    "cmd_stats",
]

# A run or a converted dataset is written into ``<name>.staging`` beside its
# final directory and renamed into place whole, so it is complete or absent.
STAGING_SUFFIX = ".staging"


@dataclass(frozen=True)
class TaskSpec:
    """One task: its models; ``prepare(ds, ds_dir)``, the part of a run that
    no config key can change; ``run(cfg, inputs)``, the rest; the metrics
    path ``stkit tune`` optimizes by default, the one the leaderboard ranks
    on, and which end ("min" or "max") of both is better."""

    models: tuple[str, ...]
    prepare: Callable[[AtomicDataset, Path], object]
    run: Callable[[Config, object], tuple[dict, dict]]
    objective: str
    metric: str
    direction: str


@dataclass
class RunRecord:
    """Everything one run produced."""

    run_id: str
    task: str
    model: str
    dataset: str
    seed: int
    config: dict
    metrics: dict
    output_dir: str
    wall_time_s: float


def resolve_dataset_dir(dataset: str) -> Path:
    """Resolve a dataset argument: literal directory, else under STKIT_DATA_DIR."""
    if not dataset:
        raise DatasetNotFound("no dataset given")
    p = Path(dataset)
    if p.is_dir():
        return p
    base = os.environ.get("STKIT_DATA_DIR")
    if base:
        candidate = Path(base) / dataset
        if candidate.is_dir():
            return candidate
    raise DatasetNotFound(
        f"dataset {dataset!r} is not a directory and was not found under "
        f"STKIT_DATA_DIR ({base or 'unset'})"
    )


def _run_id(task: str, model: str, dataset: str, seed: int, config: Mapping) -> str:
    # output_dir and config_file do not affect results, so they are not
    # part of the identity.
    payload = {
        k: v
        for k, v in sorted(config.items())
        if k not in ("output_dir", "config_file")
    }
    digest = hashlib.sha256(
        json.dumps([task, model, dataset, seed, payload], sort_keys=True).encode()
    ).hexdigest()[:10]
    return f"{task}_{model}_{Path(dataset).name}_s{seed}_{digest}"


def _infer_interval(times) -> int:
    stamps = sorted({int(t.timestamp()) for t in times})
    if len(stamps) < 2:
        raise EmptyTable("cannot infer a sampling interval from fewer than two stamps")
    return min(b - a for a, b in zip(stamps, stamps[1:]))


def _check_model_task(model: str, task: str):
    if task not in TASKS:
        raise BadConfigFile(f"unknown task {task!r}; pick from {TASKS}")
    if model not in MODEL_TASKS:
        raise BadConfigFile(
            f"unknown model {model!r}; pick from {tuple(MODEL_TASKS)}"
        )
    if MODEL_TASKS[model] != task:
        raise IncompatibleModelTask(
            f"model {model} serves task {MODEL_TASKS[model]}, not {task}"
        )


def _forecast_arrays(model, windows: Windows, batch_size, scaler: Scaler):
    """Predict a split's windows one batch at a time: (pred, truth, mask),
    each allocated once for the split, pred and truth inverse-scaled in place."""
    _keyed("batch_size", make_batches, windows.part(0, 0), batch_size)  # checks; gathers nothing
    n, arrays = len(windows), None
    for lo in range(0, n, batch_size):
        (batch,) = make_batches(windows.part(lo, lo + batch_size), batch_size)
        parts = (model.predict(batch), batch["y"], batch["y_mask"])
        if arrays is None:  # float64, as inverse scaling makes pred and truth
            dtypes = (np.float64, np.float64, bool)
            arrays = [np.empty((n, *p.shape[1:]), t) for p, t in zip(parts, dtypes)]
        for whole, part in zip(arrays, parts):
            whole[lo : lo + len(part)] = part
    pred, truth, mask = arrays
    return scaler.inverse(pred, out=pred), scaler.inverse(truth, out=truth), mask


def _default_horizons(t_out: int) -> list[int]:
    chosen = [h for h in (3, 6, 12) if h <= t_out]
    return chosen or [t_out]


# Baseline fit argument or MatchParams field -> config key.
_CONFIG_KEYS = {
    "period": "ha_period",
    "order": "var_order",
    "ridge": "var_ridge",
    "max_dim": "var_max_dim",
    "sigma_m": "match_sigma",
    "beta_m": "match_beta",
    "radius_m": "match_radius",
    "max_candidates": "match_max_candidates",
}


def _keyed(key: str | None, call: Callable, *args, **kwargs):
    """``call(*args, **kwargs)``, where a bad value's error starts with
    ``config key <key>: ``. ``key`` joins the keys of a check that covers
    several with ", "; None takes the key of the ``param`` a model or
    matcher error names."""
    try:
        return call(*args, **kwargs)
    except (BadPipelineParams, BadModelParams, BadMatchParams, HorizonOutOfRange) as exc:
        exc.args = (f"config key {key or _CONFIG_KEYS[exc.param]}: {exc}",)
        raise


def _spec(cfg: Config, spec: Callable, *keys: str):
    """``spec`` of the config values at ``keys``."""
    return _keyed(", ".join(keys), spec, *(cfg[k] for k in keys))


def _memory_bytes() -> int:
    """This machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _size_error(shape, cell_bytes: int) -> str | None:
    """None when arrays of ``shape`` taking ``cell_bytes`` a cell fit in this
    machine's memory; else "needs N bytes as a dense tensor, more than the M
    bytes of memory". Counted in Python ints, so a shape past np.intp is
    measured too; a shape that passes keeps every cell index inside np.intp."""
    need = cell_bytes * math.prod(shape)
    memory = _memory_bytes()
    if need <= memory:
        return None
    return f"needs {need} bytes as a dense tensor, more than the {memory} bytes of memory"


def _check_tensor_fits(layout: str, table: Table, axis, shape, n_features: int) -> None:
    """Raise TensorTooLarge when the dense [T, *shape, D] values and mask, 9
    bytes a cell, would not fit in memory. It runs before anything indexes or
    allocates the tensor, and names what drives the size: the time span when
    T is at least the spatial cell count, located at the row of whichever of
    its first and last stamps lies farther from the median stamp; otherwise
    the larger of grid_rows and grid_cols, or the geo ordering."""
    T, cells = axis.length, math.prod(shape)
    error = _size_error((T, cells, max(n_features, 1)), 9)
    if error is None:
        return
    if T >= cells:
        times = table.field("time")
        stamps = sorted(times.present())
        first, middle, last = stamps[0], stamps[len(stamps) // 2], stamps[-1]
        far = first if middle - first > last - middle else last
        row = int(np.argmax(times.flags(lambda t: t == far)))
        raise TensorTooLarge(
            f"the time span {format_timestamp(first)} to {format_timestamp(last)} "
            f"({T} slots of {axis.interval}s) over {cells} cells {error}",
            table=table.kind, row=table.ordinal(row), column="time",
        )
    if layout == "grid":
        raise TensorTooLarge(
            f"a {shape[0]} x {shape[1]} grid over {T} slots {error}",
            table="manifest", column="grid_rows" if shape[0] >= shape[1] else "grid_cols",
        )
    raise TensorTooLarge(
        f"the {layout} tensor of {shape[0]} entities over {T} slots {error}", table="geo"
    )


def _prepare_traffic_state(
    ds: AtomicDataset, ds_dir: Path
) -> tuple[STTensor, MaskTensor]:
    """The dense tensor and mask of the first of state rows, grid or od that
    the dataset has, both read-only. Works on columns; builds no records."""
    state = ds.dyna.field("dyna_type").flags(lambda t: t == "state")
    if state.any():
        layout, table = "graph", ds.dyna.select(state)
    elif ds.grid:
        layout, table = "grid", ds.grid
    elif ds.od:
        layout, table = "od", ds.od
    else:
        raise EmptyTable("dataset has no state, grid, or od table to forecast")

    features = ds.manifest.features or table.prop_names
    stamps = table.field("time").present()
    interval = ds.manifest.interval_seconds or _infer_interval(stamps)
    axis = build_time_axis(stamps, interval)
    if layout == "grid":
        shape = (ds.manifest.grid_rows, ds.manifest.grid_cols)
    else:
        geo = ds.geo_order()
        shape = (len(geo),) * (1 if layout == "graph" else 2)
    _check_tensor_fits(layout, table, axis, shape, len(features))
    if layout == "graph":
        tensor, mask = dyna_to_graph_tensor(table, geo, axis, features)
    elif layout == "grid":
        tensor, mask = grid_to_tensor(table, shape, axis, features)
    else:
        tensor, mask = od_to_tensor(table, geo, axis, features)
    tensor.values.flags.writeable = False
    mask.values.flags.writeable = False
    return tensor, mask


def _run_traffic_state(
    cfg: Config, inputs: tuple[STTensor, MaskTensor]
) -> tuple[dict, dict]:
    tensor, mask = inputs
    layout, axis = tensor.layout, tensor.time_axis

    wspec = _spec(cfg, WindowSpec, "input_window", "output_window")
    sspec = _spec(cfg, SplitSpec, "train_ratio", "val_ratio", "test_ratio")
    n_train = split_chronological(tensor.values.shape[0], sspec)[0].stop

    scaler = _keyed(
        "scaler", fit_scaler, cfg["scaler"], tensor.values[:n_train], mask.values[:n_train]
    )
    values = np.where(mask.values, scaler.apply(tensor.values), 0.0)
    splits = split_windows(values, mask.values, wspec, sspec)

    model_name = cfg["model"]
    if model_name == "HA":
        period = cfg["ha_period"] or max(1, 86400 // axis.interval)  # None or 0: one day
        table_shape = (period, *values.shape[1:])
        too_large = _size_error(table_shape, 25)  # sums, counts, table and seen flags
        if too_large:
            raise BadModelParams(
                f"config key ha_period: a {list(table_shape)} period table {too_large}", "period"
            )
        model: HAModel | VARModel | PersistenceModel = _keyed(
            None, ha_fit, values[:n_train], mask.values[:n_train], period, start_slot=0
        )
    elif model_name == "VAR":
        order = cfg["var_order"]
        if order > wspec.t_in:
            raise BadModelParams(
                f"config key var_order: order {order} needs {order} input slots, "
                f"but config key input_window is {wspec.t_in}",
                "order",
            )
        model = _keyed(
            None, var_fit,
            values[:n_train],
            mask.values[:n_train],
            order,
            ridge=cfg["var_ridge"],
            max_dim=cfg["var_max_dim"],
        )
    else:
        model = PersistenceModel()

    mape_floor = cfg["mape_floor"]
    if mape_floor is None:
        mape_floor = 5.0 if layout == "grid" else 0.0
    horizons = cfg["horizons"] or _default_horizons(wspec.t_out)

    metrics: dict = {"layout": layout, "n_samples": {}}
    extras: dict = {}
    batch_size = cfg["batch_size"]
    for split in ("val", "test"):
        pred, truth, m = _forecast_arrays(model, splits[split], batch_size, scaler)
        metrics[split] = _keyed(
            "horizons", evaluate_forecast,
            np.moveaxis(pred, 1, 0),
            np.moveaxis(truth, 1, 0),
            np.moveaxis(m, 1, 0),
            horizons=horizons,
            mape_floor=mape_floor,
        )
        metrics["n_samples"][split] = len(splits[split])
        if split == "test":
            extras["predictions"] = (pred, truth, m)
    metrics["n_samples"]["train"] = len(splits["train"])
    return metrics, extras


# Zip records as ``zipfile`` writes them with ``force_zip64=True``: version
# 45, method 8 (deflate), the fixed date 1980-01-01 00:00 in DOS form, and a
# zip64 record wherever a size or offset passes ``zipfile``'s limit.
_ZIP64_LIMIT = (1 << 31) - 1
_DOS_TIME, _DOS_DATE = 0, 1 << 5 | 1
_PROBE_BYTES = 1 << 16


def _local_header(name: bytes, crc: int, size: int, csize: int) -> bytes:
    """A local file header whose zip64 extra holds both sizes."""
    extra = struct.pack("<HHQQ", 1, 16, size, csize)
    return struct.pack(
        "<4s2B4HL2L2H", b"PK\x03\x04", 45, 0, 0, 8, _DOS_TIME, _DOS_DATE,
        crc, 0xFFFFFFFF, 0xFFFFFFFF, len(name), len(extra),
    ) + name + extra


def _central_record(name: bytes, crc: int, size: int, csize: int, offset: int) -> bytes:
    """A central directory record; sizes and offset past the limit move to a
    zip64 extra and read 0xFFFFFFFF in their 32-bit fields."""
    big = []
    if max(size, csize) > _ZIP64_LIMIT:
        big += [size, csize]
        size = csize = 0xFFFFFFFF
    if offset > _ZIP64_LIMIT:
        big.append(offset)
        offset = 0xFFFFFFFF
    extra = struct.pack(f"<HH{len(big)}Q", 1, 8 * len(big), *big) if big else b""
    return struct.pack(
        "<4s4B4HL2L5H2L", b"PK\x01\x02", 45, 3, 45, 0, 0, 8, _DOS_TIME, _DOS_DATE,
        crc, csize, size, len(name), len(extra), 0, 0, 0, 0o600 << 16, offset,
    ) + name + extra


def _end_records(count: int, start: int, size: int) -> bytes:
    """The end of central directory record, after the zip64 end record and
    its locator when the directory starts past the limit."""
    head = b""
    if start > _ZIP64_LIMIT:
        head = struct.pack(
            "<4sQ2H2L4Q", b"PK\x06\x06", 44, 45, 45, 0, 0, count, count, size, start,
        ) + struct.pack("<4sLQL", b"PK\x06\x07", 0, start + size, 1)
    end = struct.pack(
        "<4s4H2LH", b"PK\x05\x06", 0, 0, count, count, size, min(start, 0xFFFFFFFF), 0
    )
    return head + end


class _DeflateSink:
    """The file ``np.lib.format.write_array`` writes one zip entry to.

    It keeps the entry's CRC and sizes and writes deflated bytes to ``out``.
    The first ``_PROBE_BYTES`` are held back and deflated at level 6; when
    that saves under 10%, the entry is deflated Huffman-only instead, which
    is about as small on near-random floats and several times faster.
    Otherwise level 6 goes on, so the entry gets the bytes ``zipfile``
    writes. The choice depends only on the entry's bytes.
    """

    def __init__(self, out):
        self.out = out
        self.crc = self.size = self.csize = 0
        self.probe: bytearray | None = bytearray()
        self.deflate = zlib.compressobj(6, zlib.DEFLATED, -15)

    def write(self, data) -> int:
        data = memoryview(data).cast("B")
        n = len(data)
        self.crc = zlib.crc32(data, self.crc)
        self.size += n
        if self.probe is not None:
            take = _PROBE_BYTES - len(self.probe)
            self.probe += data[:take]
            if len(self.probe) < _PROBE_BYTES:
                return n
            self._choose()
            data = data[take:]
        self._emit(self.deflate.compress(data))
        return n

    def close(self) -> None:
        if self.probe is not None:
            self._choose()
        self._emit(self.deflate.flush())

    def _choose(self) -> None:
        raw, self.probe = bytes(self.probe), None
        head = self.deflate.compress(raw)
        if 10 * (len(head) + len(self.deflate.copy().flush())) > 9 * len(raw):
            self.deflate = zlib.compressobj(
                6, zlib.DEFLATED, -15, 8, zlib.Z_HUFFMAN_ONLY
            )
            head = self.deflate.compress(raw)
        self._emit(head)

    def _emit(self, chunk: bytes) -> None:
        self.csize += len(chunk)
        self.out.write(chunk)


def _write_predictions(path: Path, pred: np.ndarray, truth: np.ndarray, mask) -> None:
    """Write ``prediction`` and ``truth`` (float64) and ``mask`` (bool) as a
    deflated ``.npz``, each in the model's output shape.

    The file is a standard zip that ``np.load`` reads. Each entry is
    deflated at level 6 or Huffman-only (see ``_DeflateSink``) and carries
    the fixed date 1980-01-01, so rewriting the same arrays writes the same
    bytes. Entries stream: the local header is rewritten in place once the
    entry's CRC and sizes are known.
    """
    arrays = {
        "prediction": np.asarray(pred, dtype=np.float64),
        "truth": np.asarray(truth, dtype=np.float64),
        "mask": np.asarray(mask, dtype=bool),
    }
    central = []
    with open(path, "wb") as out:
        for key, array in arrays.items():
            name = f"{key}.npy".encode("ascii")
            offset = out.tell()
            out.write(_local_header(name, 0, 0, 0))
            sink = _DeflateSink(out)
            np.lib.format.write_array(sink, array, allow_pickle=False)
            sink.close()
            end = out.tell()
            out.seek(offset)
            out.write(_local_header(name, sink.crc, sink.size, sink.csize))
            out.seek(end)
            central.append(_central_record(name, sink.crc, sink.size, sink.csize, offset))
        start = out.tell()
        out.write(b"".join(central))
        out.write(_end_records(len(central), start, out.tell() - start))


def _trajectory_rows(ds: AtomicDataset) -> Table:
    """The dyna rows of type trajectory, in file order."""
    return ds.dyna.select(ds.dyna.field("dyna_type").flags(lambda t: t == "trajectory"))


def _truth_routes(path: Path, network) -> dict[str, list[str]]:
    """The truth routes file at ``path``: an object mapping each user id to a
    non-empty list of ids of the network's segments; BadConfigFile naming the
    file and the user otherwise."""
    truth = read_json_object(path, "truth routes file")
    for user, route in truth.items():
        if not (isinstance(route, list) and route):
            raise BadConfigFile(
                f"truth routes file {path}: route of user {user!r} must be a "
                f"non-empty list of segment ids, got {route!r}"
            )
        for gid in route:
            if not (isinstance(gid, str) and gid in network.routes.code):
                raise BadConfigFile(
                    f"truth routes file {path}: route of user {user!r} holds "
                    f"{gid!r}, which is not a segment of the network"
                )
    return truth


def _prepare_map_matching(ds: AtomicDataset, ds_dir: Path):
    """The road network with its route table, the dataset, its trajectories
    with their points' (lon, lat), and the truth routes beside it, if any.

    The network's route table and segment boxes are config-free, so every
    run on the prepared inputs, at any match_radius, shares them. Every
    trajectory row needs numeric lon and lat properties.
    """
    traj = _trajectory_rows(ds)
    if not len(traj):
        raise EmptyTable("dataset has no trajectory rows to match")
    (lon, lon_why), (lat, lat_why) = traj.numbers("lon"), traj.numbers("lat")
    bad = (lon_why != NUMBER) | (lat_why != NUMBER)
    if bad.any():
        row = int(np.argmax(bad))
        name, why = ("lon", lon_why) if lon_why[row] != NUMBER else ("lat", lat_why)
        value = traj.prop(name).at(row)
        what = {
            TEXT: f"has non-numeric value {value!r}",
            HUGE: f"has value {value!r} too large for a float",
        }.get(why[row], "is missing")
        message = f"trajectory property {name!r} {what}"
        raise BadFieldValue(message, table="dyna", row=traj.ordinal(row), column=name)
    trajs = build_trajectories(traj)
    points = np.column_stack((lon, lat))[trajs.rows]
    network = build_road_network(ds.geo, ds.rel)
    truth_path = ds_dir / TRUTH_ROUTES_FILE
    truth = _truth_routes(truth_path, network) if truth_path.is_file() else None
    return network, ds, trajs, points, truth


def _run_map_matching(cfg: Config, inputs) -> tuple[dict, dict]:
    network, ds, trajs, points, truth = inputs
    params = _keyed(None, MatchParams, **{
        name: cfg[key] for name, key in _CONFIG_KEYS.items() if key.startswith("match_")
    })
    lengths = network.segment_lengths()
    per_traj: dict = {}
    pooled = {"d_true": 0.0, "d_subtracted": 0.0, "d_added": 0.0, "d_correct": 0.0}
    pooled_counts = {"n_correct": 0, "n_true": 0}
    matches = viterbi_match(network, points, params, trajs.ptr)
    locations = [m.segment_id if m else None for m in matches.matched]
    for k, user in enumerate(trajs.users):
        result = matches.trajectory(k)
        entry: dict = {
            "n_points": len(result.matched),
            "n_breaks": len(result.breaks),
            "route": result.route(),
        }
        if truth is not None and user in truth:
            scores = match_metrics(truth[user], result.route(), lengths)
            entry["metrics"] = scores
            for key in pooled:
                pooled[key] += scores[key]
            for key in pooled_counts:
                pooled_counts[key] += scores[key]
        per_traj[user] = entry

    metrics: dict = {
        "n_trajectories": len(trajs),
        "n_points": len(locations),
        "n_matched_points": sum(loc is not None for loc in locations),
        "n_breaks": sum(entry["n_breaks"] for entry in per_traj.values()),
        "per_trajectory": per_traj,
    }
    if truth is not None and pooled["d_true"] > 0:
        metrics["aggregate"] = {
            "rmf": (pooled["d_subtracted"] + pooled["d_added"]) / pooled["d_true"],
            "an": pooled_counts["n_correct"] / max(pooled_counts["n_true"], 1),
            "al": pooled["d_correct"] / pooled["d_true"],
            **pooled,
        }
    # The trajectory rows in trajectory order, renumbered, at their matches.
    matched = trajs.table.take(trajs.rows, dyna_id=_ids("m", len(locations)), location=locations)
    return metrics, {"matched": matched, "dataset": ds}


def _prepare_ranking(ds: AtomicDataset, ds_dir: Path) -> Trajectories:
    """The dataset's trajectories."""
    traj = _trajectory_rows(ds)
    if not len(traj):
        raise EmptyTable("dataset has no trajectory rows to rank over")
    if not traj.field("location").flags(lambda v: v is not None).any():
        raise EmptyTable("ranking needs trajectory rows with location ids")
    return build_trajectories(traj)


def _run_ranking(cfg: Config, trajs: Trajectories) -> tuple[dict, dict]:
    # The mode is checked first, at the default size, so each check names its key.
    cut = _keyed("traj_window_mode", TrajWindowSpec, cfg["traj_window_mode"])
    cut = _keyed("traj_window_size", replace, cut, size=cfg["traj_window_size"])
    pieces = filter_trajectories(
        cut_trajectories(trajs, cut),
        min_points=cfg["min_checkins"],
        min_trajs_per_user=cfg["min_trajs_per_user"],
        min_visits_per_location=cfg["min_visits_per_location"],
    )
    if not len(pieces):
        raise EmptyTable("filtering removed every trajectory")
    splits = split_per_user(pieces, _spec(
        cfg, SplitSpec, "ranking_train_ratio", "ranking_val_ratio", "ranking_test_ratio"
    ))
    counts = Counter(loc for loc in splits["train"].values("location") if loc is not None)
    if not counts:
        raise EmptyTable("no training visits to rank locations by")
    ranked = sorted(counts, key=lambda loc: (-counts[loc], loc))
    k = cfg["ranking_k"]
    top = ranked[:k]  # all the metrics read; ranking_metrics checks k first

    def cases_of(split):
        return [(loc, top) for loc in split.values("location") if loc is not None]

    metrics: dict = {
        "n_locations_ranked": len(ranked),
        "n_trajectories": {name: len(ts) for name, ts in splits.items()},
    }
    for name in ("val", "test"):
        cases = cases_of(splits[name])
        if not cases:
            raise EmptyTable(f"no {name} cases after the per-user split")
        metrics[name] = _keyed("ranking_k", ranking_metrics, cases, k)
    return metrics, {}


TASK_TABLE = {
    "traffic_state_pred": TaskSpec(
        ("HA", "VAR", "Persistence"), _prepare_traffic_state, _run_traffic_state,
        objective="val.aggregate.mae", metric="test.aggregate.mae", direction="min",
    ),
    "map_matching": TaskSpec(
        # HMMM: common alias for the same matcher
        ("HMM", "HMMM"), _prepare_map_matching, _run_map_matching,
        objective="aggregate.rmf", metric="aggregate.rmf", direction="min",
    ),
    "eval_ranking": TaskSpec(
        ("Popularity",), _prepare_ranking, _run_ranking,
        objective="val.recall_at_k", metric="test.recall_at_k", direction="max",
    ),
}
TASKS = tuple(TASK_TABLE)
MODEL_TASKS = {m: task for task, spec in TASK_TABLE.items() for m in spec.models}


def _require(cfg: Config, command: str, keys) -> None:
    """BadConfigFile naming the first of ``keys`` that ``cfg`` leaves unset."""
    for key in keys:
        if not cfg.get(key):
            raise BadConfigFile(f"{command} needs {key!r} (flag --{key})")


def cmd_run(
    cfg: Config,
    prepared: dict | None = None,
    check: Callable[[dict], object] | None = None,
) -> RunRecord:
    """Execute one run and persist run.json, metrics.json, and outputs.

    A run loads the dataset, prepares the task's inputs from it, runs the
    config on them and persists the result. ``prepared`` maps (task,
    resolved dataset dir) to prepared inputs; calls that share one dict
    load and prepare each dataset once. ``check`` sees the metrics before
    anything is written, so an exception from it leaves no run directory.
    """
    _require(cfg, "run", ("task", "model", "dataset"))
    task, model, dataset = cfg["task"], cfg["model"], cfg["dataset"]
    _check_model_task(model, task)
    seed = cfg["seed"]
    ds_dir = resolve_dataset_dir(dataset)
    spec = TASK_TABLE[task]
    prepared = {} if prepared is None else prepared
    key = (task, ds_dir.resolve())

    started = time.perf_counter()
    if key not in prepared:
        prepared[key] = spec.prepare(load_dataset(ds_dir), ds_dir)
    metrics, extras = spec.run(cfg, prepared[key])
    metrics = jsonify_metrics(metrics)
    if check is not None:
        check(metrics)

    run_id = _run_id(task, model, dataset, seed, cfg.as_dict())
    out_dir = Path(cfg["output_dir"]) / run_id
    record = RunRecord(
        run_id=run_id,
        task=task,
        model=model,
        dataset=Path(dataset).name,
        seed=seed,
        config=cfg.as_dict(),
        metrics=metrics,
        output_dir=str(out_dir),
        wall_time_s=0.0,  # set by _write_run
    )
    _write_whole(out_dir, _write_run, record, cfg, extras, started)
    return record


def _write_whole(out_dir: Path, write: Callable, *args) -> None:
    """``write(staging, *args)``, then the staging directory replaces ``out_dir``
    whole: ``out_dir`` is complete or absent and keeps no file of an earlier one."""
    staging = out_dir.with_name(out_dir.name + STAGING_SUFFIX)
    shutil.rmtree(staging, ignore_errors=True)  # left by a killed write
    _make_dir(staging)
    try:
        write(staging, *args)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.replace(staging, out_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def _make_dir(path: Path) -> None:
    """Create ``path`` and its missing parents under output_dir; BadConfigFile
    naming output_dir if the system refuses, as when a file stands in the way."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        message = f"config key output_dir: cannot create {path}: {exc.strerror}"
        raise BadConfigFile(message) from None


def _write_run(
    out_dir: Path, record: RunRecord, cfg: Config, extras: dict, started: float
) -> None:
    """Write a run's artifacts into ``out_dir``, run.json last.

    ``record.wall_time_s`` is set to the seconds since ``started`` just before
    run.json is written, so it covers the other artifacts' writes.
    """
    write_json(out_dir / "metrics.json", record.metrics)
    if "predictions" in extras:
        _write_predictions(out_dir / "predictions.npz", *extras["predictions"])
    if "matched" in extras:
        name = f"{extras['dataset'].manifest.name}_matched.dyna"
        (out_dir / name).write_bytes(write_table("dyna", extras["matched"]))
    record.wall_time_s = time.perf_counter() - started
    write_json(out_dir / "run.json", {
        "run_id": record.run_id,
        "task": record.task,
        "model": record.model,
        "dataset": record.dataset,
        "seed": record.seed,
        "config": {k: v for k, v in sorted(cfg.as_dict().items())},
        "provenance": {k: v for k, v in sorted(cfg.provenance.items())},
        "wall_time_s": record.wall_time_s,
    })


def metric_at(metrics: Mapping, dotted: str):
    """The value at a dotted path such as ``val.aggregate.mae``; KeyError if absent."""
    node = metrics
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def _objective_from(metrics: Mapping, task: str, dotted: str | None) -> float:
    """Pull the tuning objective (smaller is better) out of a metrics dict.

    The default is the task's objective path, negated when larger is better;
    a present None counts as NaN.
    """
    negate = False
    if dotted is None:
        spec = TASK_TABLE[task]
        dotted, negate = spec.objective, spec.direction == "max"
    try:
        value = metric_at(metrics, dotted)
    except KeyError:
        raise BadConfigFile(f"objective path {dotted!r} not found in metrics") from None
    value = math.nan if value is None else float(value)
    return -value if negate else value


def _finite_or_none(value: float) -> float | None:
    """An objective as search.json holds it: None when not finite."""
    return value if math.isfinite(value) else None


def cmd_tune(cfg: Config):
    """Hyper-parameter search around cmd_run; persists one run per trial."""
    if not cfg.get("space_file"):
        raise BadConfigFile("tune needs a search space (flag --space_file)")
    payload = read_json_object(cfg["space_file"], "space file")
    check_keys(payload, cfg.values, "search space")
    # Each trial writes to its own directory and every trial reads the same
    # files, so no trial may choose these.
    for key in ("output_dir", "config_file", "space_file"):
        if key in payload:
            raise BadConfigFile(f"search space key {key!r}: a trial cannot choose it")
    try:
        space = parse_space(payload)
    except ValueError as exc:
        raise BadConfigFile(str(exc)) from None
    # The space may choose the model, but not the task or the dataset.
    _require(cfg, "tune", ("task", "dataset"))
    if "model" not in space:
        _require(cfg, "tune", ("model",))

    seed, alg = cfg["seed"], cfg["search_alg"]
    if alg == "GridSearch":
        candidates = grid_candidates(space)
    elif alg == "RandomSearch":
        n_trials = cfg["n_trials"]
        if n_trials <= 0:
            raise BadConfigFile(
                f"config key n_trials: must be positive, got {n_trials}"
            )
        if seed < 0:
            raise BadConfigFile(
                f"config key seed: RandomSearch needs a non-negative seed, got {seed}"
            )
        candidates = random_candidates(space, n_trials, seed)
    else:
        raise BadConfigFile(
            f"unknown search_alg {alg!r}; pick GridSearch or RandomSearch"
        )

    # A space that chooses the model names the tune by its values, in order.
    model = "+".join(map(str, space["model"].values)) if "model" in space else cfg["model"]
    tune_root = Path(cfg["output_dir"]) / (
        "tune_" + _run_id(cfg["task"], model, cfg["dataset"], seed, cfg.as_dict())
    )
    # The highest directory on the way to tune_root that the tune creates, if any.
    created = next((p for p in (*tune_root.parents[::-1], tune_root) if not p.exists()), None)

    # Every trial's config is built, and so checked, before the first runs.
    trial_configs = [
        Config(
            {**cfg.values, **params, "output_dir": str(tune_root / f"trial_{i:03d}")},
            {**cfg.provenance, **dict.fromkeys(params, "search")},
        )
        for i, params in enumerate(candidates)
    ]
    task, dotted = cfg["task"], cfg.get("objective")
    # So are each trial's model and horizons, which a run checks only after its fit.
    for trial_cfg in trial_configs:
        _check_model_task(trial_cfg["model"], task)
        if task == "traffic_state_pred":
            t_out = _spec(trial_cfg, WindowSpec, "input_window", "output_window").t_out
            _keyed("horizons", check_horizons, trial_cfg["horizons"] or (), t_out)
    prepared: dict = {}  # shared by the trials, so each dataset loads once

    def objective_of(metrics: Mapping) -> float:
        return _objective_from(metrics, task, dotted)

    def run_trial(params: Mapping):
        trial_cfg = trial_configs[run_trial.counter]  # built from these params
        run_trial.counter += 1
        record = cmd_run(trial_cfg, prepared, check=objective_of)
        return record, objective_of(record.metrics)

    run_trial.counter = 0
    try:
        result = run_search(candidates, run_trial)
    except BaseException:
        if created is not None:  # all that the tune made lies in it
            shutil.rmtree(created, ignore_errors=True)
        elif run_trial.counter > 1:  # the trials before the failed one wrote runs
            shutil.rmtree(tune_root, ignore_errors=True)
        raise
    best = result.best
    _make_dir(tune_root)
    write_json(tune_root / "search.json", {
        "algorithm": alg,
        "n_trials": len(result.trials),
        "best_trial": best.index,
        "best_params": best.params,
        "best_objective": _finite_or_none(best.objective),
        "trials": [
            {
                "index": t.index,
                "params": t.params,
                "objective": _finite_or_none(t.objective),
                "run_id": t.record.run_id,
                "output_dir": t.record.output_dir,
            }
            for t in result.trials
        ],
    })
    return result


def cmd_validate(cfg: Config):
    """Validate a dataset directory; returns the report."""
    ds_dir = resolve_dataset_dir(cfg.get("dataset"))
    ds = load_dataset(ds_dir, validate=False)
    return validate_dataset(ds)


def cmd_convert(cfg: Config) -> Path:
    """Convert a raw flat CSV (at --dataset) using the config's mapping.

    The config file must hold a ``conversion`` object understood by
    RawConversionSpec; the result replaces output_dir's directory of its name.
    """
    raw_path = Path(cfg.get("dataset") or "")
    if not raw_path.is_file():
        raise DatasetNotFound(f"raw csv {raw_path} does not exist")
    mapping = cfg.get("conversion")
    if mapping is None:
        raise BadConfigFile(
            "convert needs a 'conversion' object in the config file"
        )
    try:
        conv = RawConversionSpec.from_json(mapping)
    except KeyError as exc:
        raise BadConfigFile(f"conversion mapping lacks {exc}") from None
    ds = convert_raw_csv(conv, raw_path.read_bytes())
    out = Path(cfg["output_dir"]) / ds.manifest.name
    _write_whole(out, lambda staging: save_dataset(ds, staging))
    return out


def cmd_stats(cfg: Config) -> dict:
    """Row counts and coverage for a dataset directory."""
    ds_dir = resolve_dataset_dir(cfg.get("dataset"))
    ds = load_dataset(ds_dir, validate=False)
    return dataset_stats(ds)
