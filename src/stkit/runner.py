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
import time
import zipfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .atomic import _MISSING, DynaRecord, Table, write_table
from .baselines import HAModel, PersistenceModel, VARModel, ha_fit, var_fit
from .config import Config, check_keys, read_json_object
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
    IncompatibleModelTask,
)
from .mapmatch import MatchParams, build_road_network, viterbi_match
from .pipeline import (
    SplitSpec,
    TrajWindowSpec,
    WindowSpec,
    cut_trajectory,
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
    Trajectory,
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

# cmd_run writes a run into ``<run_id>.staging`` beside its final directory
# and renames it into place whole, so a run directory is complete or absent.
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


def _forecast_arrays(model, windows, batch_size: int):
    """Predict a split's windows in batches; returns (pred, truth, mask) stacked."""
    preds, ys, masks = [], [], []
    for batch in make_batches(windows, batch_size):
        preds.append(model.predict(batch))
        ys.append(batch["y"])
        masks.append(batch["y_mask"])
    return np.concatenate(preds), np.concatenate(ys), np.concatenate(masks)


def _default_horizons(t_out: int) -> list[int]:
    chosen = [h for h in (3, 6, 12) if h <= t_out]
    return chosen or [t_out]


def _config_number(
    cfg: Config,
    key: str,
    kind: type,
    error: Callable[[str], Exception] = BadPipelineParams,
):
    """``cfg[key]`` as ``kind`` (int or float); see ``_as_number``."""
    return _as_number(cfg[key], key, kind, error)


def _as_number(
    value,
    key: str,
    kind: type,
    error: Callable[[str], Exception] = BadPipelineParams,
):
    """``value``, read from config key ``key``, as ``kind`` (int or float).

    A value that does not convert, that an int key would truncate or
    reinterpret (2.7, "3"), or that is NaN or infinite, raises
    ``error(message)`` naming the key.
    """
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (
        number != value if kind is int else not math.isfinite(number)
    ):
        want = "a whole number" if kind is int else "a finite number"
        raise error(f"config key {key}: expected {want}, got {value!r}")
    return number


# Baseline fit argument -> config key.
_MODEL_KEYS = {
    "period": "ha_period",
    "order": "var_order",
    "ridge": "var_ridge",
    "max_dim": "var_max_dim",
}


def _fit(fit: Callable, *args, **kwargs):
    """Call a baseline fit; a bad model value names its config key."""
    try:
        return fit(*args, **kwargs)
    except BadModelParams as exc:
        raise BadModelParams(
            f"config key {_MODEL_KEYS[exc.param]}: {exc}", exc.param
        ) from None


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
    if layout == "graph":
        tensor, mask = dyna_to_graph_tensor(table, ds.geo_order(), axis, features)
    elif layout == "grid":
        shape = (ds.manifest.grid_rows, ds.manifest.grid_cols)
        tensor, mask = grid_to_tensor(table, shape, axis, features)
    else:
        tensor, mask = od_to_tensor(table, ds.geo_order(), axis, features)
    tensor.values.flags.writeable = False
    mask.values.flags.writeable = False
    return tensor, mask


def _run_traffic_state(
    cfg: Config, inputs: tuple[STTensor, MaskTensor]
) -> tuple[dict, dict]:
    tensor, mask = inputs
    layout, axis = tensor.layout, tensor.time_axis

    wspec = WindowSpec(
        _config_number(cfg, "input_window", int),
        _config_number(cfg, "output_window", int),
    )
    sspec = SplitSpec(
        *(_config_number(cfg, f"{k}_ratio", float) for k in ("train", "val", "test"))
    )
    n_train = split_chronological(tensor.values.shape[0], sspec)[0].stop

    scaler = fit_scaler(
        cfg["scaler"], tensor.values[:n_train], mask.values[:n_train]
    )
    values = np.where(mask.values, scaler.apply(tensor.values), 0.0)
    splits = split_windows(values, mask.values, wspec, sspec, axis=axis)

    model_name = cfg["model"]
    if model_name == "HA":
        period = max(1, 86400 // axis.interval)
        if cfg["ha_period"]:  # None or 0: one day of slots
            period = _config_number(cfg, "ha_period", int, BadModelParams)
        model: HAModel | VARModel | PersistenceModel = _fit(
            ha_fit, values[:n_train], mask.values[:n_train], period, start_slot=0
        )
    elif model_name == "VAR":
        order = _config_number(cfg, "var_order", int, BadModelParams)
        if order > wspec.t_in:
            raise BadModelParams(
                f"config key var_order: order {order} needs {order} input slots, "
                f"but config key input_window is {wspec.t_in}",
                "order",
            )
        model = _fit(
            var_fit,
            values[:n_train],
            mask.values[:n_train],
            order,
            ridge=_config_number(cfg, "var_ridge", float, BadModelParams),
            max_dim=_config_number(cfg, "var_max_dim", int, BadModelParams),
        )
    else:
        model = PersistenceModel()

    if cfg["mape_floor"] is None:
        mape_floor = 5.0 if layout == "grid" else 0.0
    else:
        mape_floor = _config_number(cfg, "mape_floor", float)
    horizons = cfg["horizons"] or _default_horizons(wspec.t_out)
    if not isinstance(horizons, list):
        raise BadPipelineParams(
            f"config key horizons: expected a list, got {horizons!r}"
        )
    horizons = [_as_number(h, "horizons", int) for h in horizons]

    metrics: dict = {"layout": layout, "n_samples": {}}
    extras: dict = {}
    batch_size = _config_number(cfg, "batch_size", int)
    for split in ("val", "test"):
        pred, truth, m = _forecast_arrays(model, splits[split], batch_size)
        pred = scaler.inverse(pred)
        truth = scaler.inverse(truth)
        report = evaluate_forecast(
            np.moveaxis(pred, 1, 0),
            np.moveaxis(truth, 1, 0),
            np.moveaxis(m, 1, 0),
            horizons=horizons,
            mape_floor=mape_floor,
        )
        metrics[split] = report.to_json()
        metrics["n_samples"][split] = len(splits[split])
        if split == "test":
            extras["predictions"] = (pred, truth, m)
    metrics["n_samples"]["train"] = len(splits["train"])
    return metrics, extras


def _write_predictions(path: Path, pred: np.ndarray, truth: np.ndarray, mask) -> None:
    """Write ``prediction`` and ``truth`` (float64) and ``mask`` (bool) as a
    deflated ``.npz``, each in the model's output shape.

    Every zip entry carries the fixed date 1980-01-01, so rewriting the same
    arrays writes the same bytes. The date is set here rather than left to
    whatever ``np.savez_compressed`` and ``zipfile`` default to.
    """
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


# MatchParams field -> (config key, conversion).
_MATCH_KEYS = {
    "sigma_m": ("match_sigma", float),
    "beta_m": ("match_beta", float),
    "radius_m": ("match_radius", float),
    "max_candidates": ("match_max_candidates", int),
}


def _match_params(cfg: Config) -> MatchParams:
    """MatchParams from the match_* config keys; a bad value names its key."""
    values = {
        name: _config_number(cfg, key, kind, partial(BadMatchParams, param=name))
        for name, (key, kind) in _MATCH_KEYS.items()
    }
    try:
        return MatchParams(**values)
    except BadMatchParams as exc:
        raise BadMatchParams(
            f"config key {_MATCH_KEYS[exc.param][0]}: {exc}", exc.param
        ) from None


def _coordinate_fault(value) -> str | None:
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
            if not (isinstance(gid, str) and gid in network.segments):
                raise BadConfigFile(
                    f"truth routes file {path}: route of user {user!r} holds "
                    f"{gid!r}, which is not a segment of the network"
                )
    return truth


def _prepare_map_matching(ds: AtomicDataset, ds_dir: Path):
    """The road network with its route table, the dataset, its trajectories
    and the truth routes beside it, if any.

    The network's route table and segment boxes are config-free, so every
    run on the prepared inputs, at any match_radius, shares them. Every
    trajectory row needs numeric lon and lat properties.
    """
    traj = _trajectory_rows(ds)
    if not len(traj):
        raise EmptyTable("dataset has no trajectory rows to match")
    faults = []
    for name in ("lon", "lat"):
        column = traj.prop(name)
        what = [_coordinate_fault(v) for v in column.values]
        bad = np.array([w is not None for w in what], dtype=bool)[column.codes]
        if bad.any():
            row = int(np.argmax(bad))
            faults.append((row, name, what[column.codes[row]]))
    if faults:
        row, name, what = min(faults, key=lambda f: f[0])  # lon first on a tie
        raise BadFieldValue(
            f"trajectory property {name!r} {what}",
            table="dyna",
            row=traj.ordinal(row),
            column=name,
        )
    trajectories = tuple(build_trajectories(traj))
    network = build_road_network(ds.geo, ds.rel)
    truth_path = ds_dir / TRUTH_ROUTES_FILE
    truth = _truth_routes(truth_path, network) if truth_path.is_file() else None
    return network, ds, trajectories, truth


def _run_map_matching(cfg: Config, inputs) -> tuple[dict, dict]:
    network, ds, trajectories, truth = inputs
    params = _match_params(cfg)
    lengths = network.segment_lengths()
    per_traj: dict = {}
    matched_rows: list[DynaRecord] = []
    pooled = {"d_true": 0.0, "d_subtracted": 0.0, "d_added": 0.0, "d_correct": 0.0}
    pooled_counts = {"n_correct": 0, "n_true": 0}
    n_points = 0
    n_matched = 0
    n_breaks = 0
    for traj in trajectories:
        result = viterbi_match(network, traj, params)
        n_points += len(traj.points)
        n_matched += sum(1 for m in result.matched if m is not None)
        n_breaks += len(result.breaks)
        for p, m in zip(traj.points, result.matched):
            matched_rows.append(DynaRecord(
                f"m{len(matched_rows)}", "trajectory", p.time, traj.user_id,
                m.segment_id if m else None, dict(p.properties),
            ))
        entry: dict = {
            "n_points": len(traj.points),
            "n_breaks": len(result.breaks),
            "route": result.route(),
        }
        if truth is not None and traj.user_id in truth:
            scores = match_metrics(truth[traj.user_id], result.route(), lengths)
            entry["metrics"] = scores
            for key in pooled:
                pooled[key] += scores[key]
            for key in pooled_counts:
                pooled_counts[key] += scores[key]
        per_traj[traj.user_id] = entry

    metrics: dict = {
        "n_trajectories": len(trajectories),
        "n_points": n_points,
        "n_matched_points": n_matched,
        "n_breaks": n_breaks,
        "per_trajectory": per_traj,
    }
    if truth is not None and pooled["d_true"] > 0:
        metrics["aggregate"] = {
            "rmf": (pooled["d_subtracted"] + pooled["d_added"]) / pooled["d_true"],
            "an": pooled_counts["n_correct"] / max(pooled_counts["n_true"], 1),
            "al": pooled["d_correct"] / pooled["d_true"],
            **pooled,
        }
    return metrics, {"matched_rows": matched_rows, "dataset": ds}


def _prepare_ranking(ds: AtomicDataset, ds_dir: Path) -> tuple[Trajectory, ...]:
    """The dataset's trajectories."""
    traj = _trajectory_rows(ds)
    if not len(traj):
        raise EmptyTable("dataset has no trajectory rows to rank over")
    if not traj.field("location").flags(lambda v: v is not None).any():
        raise EmptyTable("ranking needs trajectory rows with location ids")
    return tuple(build_trajectories(traj))


def _run_ranking(cfg: Config, trajectories: tuple[Trajectory, ...]) -> tuple[dict, dict]:
    cut = TrajWindowSpec(
        cfg["traj_window_mode"], _config_number(cfg, "traj_window_size", int)
    )
    pieces = [p for t in trajectories for p in cut_trajectory(t, cut)]
    pieces = filter_trajectories(
        pieces,
        min_points=_config_number(cfg, "min_checkins", int),
        min_trajs_per_user=_config_number(cfg, "min_trajs_per_user", int),
        min_visits_per_location=_config_number(cfg, "min_visits_per_location", int),
    )
    if not pieces:
        raise EmptyTable("filtering removed every trajectory")
    splits = split_per_user(
        pieces,
        SplitSpec(
            *(
                _config_number(cfg, f"ranking_{k}_ratio", float)
                for k in ("train", "val", "test")
            )
        ),
    )
    counts: dict[str, int] = {}
    for t in splits["train"]:
        for p in t.points:
            if p.location is not None:
                counts[p.location] = counts.get(p.location, 0) + 1
    if not counts:
        raise EmptyTable("no training visits to rank locations by")
    ranked = [
        loc for loc, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    k = _config_number(cfg, "ranking_k", int)

    def cases_of(trajs):
        cases = []
        for t in trajs:
            for p in t.points:
                if p.location is not None:
                    cases.append((p.location, ranked))
        return cases

    metrics: dict = {
        "n_locations_ranked": len(ranked),
        "n_trajectories": {name: len(ts) for name, ts in splits.items()},
    }
    for name in ("val", "test"):
        cases = cases_of(splits[name])
        if not cases:
            raise EmptyTable(f"no {name} cases after the per-user split")
        metrics[name] = ranking_metrics(cases, k)
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
    seed = _config_number(cfg, "seed", int, BadConfigFile)
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
    staging = out_dir.with_name(out_dir.name + STAGING_SUFFIX)
    shutil.rmtree(staging, ignore_errors=True)  # left by a killed run
    staging.mkdir(parents=True)
    try:
        _write_run(staging, record, cfg, extras, started)
        shutil.rmtree(out_dir, ignore_errors=True)  # a rerun replaces it
        os.replace(staging, out_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return record


def _write_run(
    out_dir: Path, record: RunRecord, cfg: Config, extras: dict, started: float
) -> None:
    """Write a run's artifacts into ``out_dir``, run.json last.

    ``record.wall_time_s`` is set to the seconds since ``started`` just before
    run.json is written, so it covers the other artifacts' writes.
    """
    (out_dir / "metrics.json").write_text(
        json.dumps(record.metrics, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    if "predictions" in extras:
        _write_predictions(out_dir / "predictions.npz", *extras["predictions"])
    if "matched_rows" in extras:
        name = f"{extras['dataset'].manifest.name}_matched.dyna"
        (out_dir / name).write_bytes(write_table("dyna", extras["matched_rows"]))
    record.wall_time_s = time.perf_counter() - started
    (out_dir / "run.json").write_text(
        json.dumps(
            {
                "run_id": record.run_id,
                "task": record.task,
                "model": record.model,
                "dataset": record.dataset,
                "seed": record.seed,
                "config": {k: v for k, v in sorted(cfg.as_dict().items())},
                "provenance": {k: v for k, v in sorted(cfg.provenance.items())},
                "wall_time_s": record.wall_time_s,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        "utf-8",
    )


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


def cmd_tune(cfg: Config):
    """Hyper-parameter search around cmd_run; persists one run per trial."""
    if not cfg.get("space_file"):
        raise BadConfigFile("tune needs a search space (flag --space_file)")
    payload = read_json_object(cfg["space_file"], "space file")
    check_keys(payload, cfg.values, "search space")
    try:
        space = parse_space(payload)
    except ValueError as exc:
        raise BadConfigFile(str(exc)) from None
    # The space may choose the model, but not the task or the dataset.
    _require(cfg, "tune", ("task", "dataset"))
    if "model" not in space:
        _require(cfg, "tune", ("model",))

    seed = _config_number(cfg, "seed", int, BadConfigFile)
    alg = str(cfg["search_alg"])
    if alg == "GridSearch":
        candidates = grid_candidates(space)
    elif alg == "RandomSearch":
        n_trials = _config_number(cfg, "n_trials", int, BadConfigFile)
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

    tune_root = Path(cfg["output_dir"]) / (
        "tune_" + _run_id(cfg["task"], cfg["model"], cfg["dataset"], seed, cfg.as_dict())
    )

    task, dotted = cfg["task"], cfg.get("objective")
    prepared: dict = {}  # shared by the trials, so each dataset loads once

    def objective_of(metrics: Mapping) -> float:
        return _objective_from(metrics, task, dotted)

    def run_trial(params: Mapping):
        values = dict(cfg.values)
        values.update(params)
        values["output_dir"] = str(tune_root / f"trial_{run_trial.counter:03d}")
        provenance = dict(cfg.provenance)
        for key in params:
            provenance[key] = "search"
        run_trial.counter += 1
        record = cmd_run(
            Config(values=values, provenance=provenance), prepared, check=objective_of
        )
        return record, objective_of(record.metrics)

    run_trial.counter = 0
    try:
        result = run_search(candidates, run_trial)
    except BaseException:
        if run_trial.counter > 1:  # the trials before the failed one wrote runs
            shutil.rmtree(tune_root, ignore_errors=True)
        raise
    best = result.best
    tune_root.mkdir(parents=True, exist_ok=True)
    (tune_root / "search.json").write_text(
        json.dumps(
            {
                "algorithm": alg,
                "n_trials": len(result.trials),
                "best_trial": best.index,
                "best_params": best.params,
                "best_objective": best.objective,
                "trials": [
                    {
                        "index": t.index,
                        "params": t.params,
                        "objective": t.objective,
                        "run_id": t.record.run_id,
                        "output_dir": t.record.output_dir,
                    }
                    for t in result.trials
                ],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        "utf-8",
    )
    return result


def cmd_validate(cfg: Config):
    """Validate a dataset directory; returns the report."""
    ds_dir = resolve_dataset_dir(cfg.get("dataset"))
    ds = load_dataset(ds_dir, validate=False)
    return validate_dataset(ds)


def cmd_convert(cfg: Config) -> Path:
    """Convert a raw flat CSV (at --dataset) using the config's mapping.

    The config file must hold a ``conversion`` object understood by
    RawConversionSpec; the result is written under output_dir.
    """
    raw_path = Path(cfg.get("dataset") or "")
    if not raw_path.is_file():
        raise DatasetNotFound(f"raw csv {raw_path} does not exist")
    mapping = cfg.get("conversion")
    if not isinstance(mapping, Mapping):
        raise BadConfigFile(
            "convert needs a 'conversion' object in the config file"
        )
    try:
        conv = RawConversionSpec.from_json(mapping)
    except KeyError as exc:
        raise BadConfigFile(f"conversion mapping lacks {exc}") from None
    ds = convert_raw_csv(conv, raw_path.read_bytes())
    out = Path(cfg["output_dir"]) / ds.manifest.name
    save_dataset(ds, out)
    return out


def cmd_stats(cfg: Config) -> dict:
    """Row counts and coverage for a dataset directory."""
    ds_dir = resolve_dataset_dir(cfg.get("dataset"))
    ds = load_dataset(ds_dir, validate=False)
    return dataset_stats(ds)
