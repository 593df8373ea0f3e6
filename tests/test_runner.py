"""End-to-end runs of all three tasks plus tuning, conversion, stats."""

import json
import time
import zipfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from stkit import runner
from stkit.atomic import DynaRecord, GeoUnit, UserUnit, parse_table
from stkit.config import load_config
from stkit.dataset import AtomicDataset, Manifest, save_dataset
from stkit.exceptions import (
    BadConfigFile,
    DatasetNotFound,
    EmptySegment,
    IncompatibleModelTask,
    NoResults,
    ValidationFailed,
)
from stkit.leaderboard import build_leaderboard, load_runs
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


def ranking_dataset():
    """Check-in data with a known popularity order: g0 > g1 > ... > g5."""
    t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    geo = [
        GeoUnit(f"g{i}", "Point", ((116.0 + 0.01 * i, 39.9),), {}) for i in range(6)
    ]
    usr = [UserUnit(f"u{i}", {}) for i in range(3)]
    dyna = []
    n = 0
    for u in range(3):
        for burst in range(5):  # five bursts, > 72h apart, so the cutter splits
            start = t0 + timedelta(days=4 * burst, hours=u)
            for p in range(4):  # exactly min_checkins points per piece
                # Bias visits toward low location ids, deterministically.
                loc = f"g{(u + burst + p) % (2 + p % 4)}"
                dyna.append(
                    DynaRecord(
                        f"d{n}",
                        "trajectory",
                        start + timedelta(minutes=10 * p),
                        f"u{u}",
                        loc,
                        {},
                    )
                )
                n += 1
    return AtomicDataset(
        manifest=Manifest(name="checkins"), geo=geo, usr=usr, dyna=dyna
    )


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
