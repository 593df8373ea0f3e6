"""Exit codes and emitted files for every CLI subcommand."""

import csv
import json
from pathlib import Path

import pytest

from conftest import clean_dataset
from stkit.cli import main
from stkit.dataset import save_dataset
from stkit.exceptions import NoResults
from stkit.leaderboard import build_leaderboard, load_runs
from stkit.synthetic import generate_synthetic, save_synthetic


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
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
            "trajectories",
            {"n": 3, "n_trajectories": 2, "route_segments": 4, "name": "traces"},
            seed=3,
        ),
        root / "traces",
    )
    cfg = root / "small_windows.json"
    cfg.write_text(
        json.dumps({"input_window": 4, "output_window": 2, "ha_period": 4}), "utf-8"
    )
    return root


def run_flags(cli_root, out, model="HA"):
    return [
        "--task", "traffic_state_pred",
        "--model", model,
        "--dataset", str(cli_root / "flow_p4"),
        "--output_dir", str(out),
        "--config_file", str(cli_root / "small_windows.json"),
    ]


# -- argument handling ------------------------------------------------------------


def test_no_command_prints_usage(capsys):
    assert main([]) == 3
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert main(["run", "--learning_rate", "0.1"]) == 3
    err = capsys.readouterr().err
    assert "--learning_rate" in err


def test_bad_flag_value(capsys):
    assert main(["run", "--seed", "not_a_number"]) == 3


def test_missing_required_keys(cli_root, capsys, tmp_path):
    assert main(["run", "--model", "HA", "--dataset", str(cli_root / "flow_p4"),
                 "--output_dir", str(tmp_path)]) == 3
    assert "task" in capsys.readouterr().err


# -- run ---------------------------------------------------------------------------


def test_run_success(cli_root, tmp_path, capsys):
    assert main(["run", *run_flags(cli_root, tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "finished in" in out
    assert "outputs:" in out
    assert '"mae": 0.0' in out
    run_dirs = list(tmp_path.iterdir())
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "metrics.json").is_file()


def test_run_incompatible_pair(cli_root, tmp_path, capsys):
    code = main(
        [
            "run",
            "--task", "map_matching",
            "--model", "HA",
            "--dataset", str(cli_root / "traces"),
            "--output_dir", str(tmp_path),
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_run_dataset_not_found(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STKIT_DATA_DIR", raising=False)
    code = main(
        [
            "run",
            "--task", "traffic_state_pred",
            "--model", "HA",
            "--dataset", "no_such_dataset",
            "--output_dir", str(tmp_path),
        ]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_run_matching(cli_root, tmp_path, capsys):
    code = main(
        [
            "run",
            "--task", "map_matching",
            "--model", "HMM",
            "--dataset", str(cli_root / "traces"),
            "--output_dir", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert '"rmf": 0.0' in out


@pytest.mark.parametrize(
    "key, value",
    [
        ("match_beta", float("nan")),
        ("match_sigma", float("nan")),
        ("match_radius", float("inf")),
        ("match_beta", float("-inf")),
        ("match_sigma", 0),
        ("match_radius", -5),
        ("match_max_candidates", 0),
        ("match_max_candidates", float("inf")),
        ("match_max_candidates", 2.5),
        ("match_sigma", "wide"),
    ],
)
def test_run_matching_bad_params(cli_root, tmp_path, capsys, key, value):
    cfg = tmp_path / "match.json"
    cfg.write_text(json.dumps({key: value}), "utf-8")  # NaN/Infinity literals
    code = main(
        [
            "run",
            "--task", "map_matching",
            "--model", "HMM",
            "--dataset", str(cli_root / "traces"),
            "--output_dir", str(tmp_path / "runs"),
            "--config_file", str(cfg),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "task, values",
    [
        ("traffic_state_pred", {"scaler": "bogus"}),
        ("traffic_state_pred", {"train_ratio": 0.5}),
        ("traffic_state_pred", {"val_ratio": 0.0, "train_ratio": 0.8}),
        ("traffic_state_pred", {"input_window": 0}),
        ("traffic_state_pred", {"batch_size": 0}),
        ("eval_ranking", {"traj_window_mode": "weekly"}),
        ("eval_ranking", {"traj_window_size": 0}),
        ("eval_ranking", {"ranking_train_ratio": 0.9}),
    ],
)
def test_run_bad_pipeline_values(cli_root, tmp_path, capsys, task, values):
    if task == "eval_ranking":
        model, dataset = "Popularity", tmp_path / "clean"
        save_dataset(clean_dataset(), dataset)
        # Keep every trajectory, so the split ratios are reached.
        values = {"min_checkins": 0, "min_trajs_per_user": 0, **values}
    else:
        model, dataset = "HA", cli_root / "flow_p4"
        values = {"input_window": 4, "output_window": 2, **values}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(values), "utf-8")
    code = main(
        [
            "run",
            "--task", task,
            "--model", model,
            "--dataset", str(dataset),
            "--output_dir", str(tmp_path / "runs"),
            "--config_file", str(cfg),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "model, values, key",
    [
        ("VAR", {"var_order": 0}, "var_order"),
        ("HA", {"ha_period": -2}, "ha_period"),
        ("VAR", {"var_max_dim": 1}, "var_max_dim"),  # 3 cells flattened
        ("HA", {"input_window": "abc"}, "input_window"),
        ("HA", {"output_window": 2.7}, "output_window"),
        ("VAR", {"var_order": "abc"}, "var_order"),
        ("VAR", {"var_order": 2.7}, "var_order"),
        ("HA", {"batch_size": "abc"}, "batch_size"),
        ("HA", {"train_ratio": "most"}, "train_ratio"),
    ],
)
def test_run_bad_model_values(cli_root, tmp_path, capsys, model, values, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"input_window": 4, "output_window": 2, **values}), "utf-8")
    code = main(
        [
            "run",
            "--task", "traffic_state_pred",
            "--model", model,
            "--dataset", str(cli_root / "flow_p4"),
            "--output_dir", str(tmp_path / "runs"),
            "--config_file", str(cfg),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "command, values, key",
    [
        ("run", {"seed": "abc"}, "seed"),
        ("run", {"seed": 2.5}, "seed"),
        ("run", {"horizons": ["x"]}, "horizons"),
        ("run", {"horizons": [1, 1.5]}, "horizons"),
        ("run", {"horizons": 2}, "horizons"),
        ("tune", {"seed": "abc"}, "seed"),
        ("tune", {"seed": 2.5}, "seed"),
        ("tune", {"search_alg": "RandomSearch", "n_trials": "many"}, "n_trials"),
        ("tune", {"search_alg": "RandomSearch", "n_trials": 0}, "n_trials"),
        ("tune", {"search_alg": "RandomSearch", "seed": -1}, "seed"),
    ],
)
def test_bad_seed_trials_and_horizons(cli_root, tmp_path, capsys, command, values, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"input_window": 4, "output_window": 2, **values}), "utf-8")
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"ha_period": {"values": [4]}}), "utf-8")
    code = main(
        [
            command,
            "--task", "traffic_state_pred",
            "--model", "HA",
            "--dataset", str(cli_root / "flow_p4"),
            "--output_dir", str(tmp_path / "runs"),
            "--config_file", str(cfg),
            *(["--space_file", str(space)] if command == "tune" else []),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


# -- validate ---------------------------------------------------------------------


def test_validate_clean(cli_root, capsys):
    assert main(["validate", "--dataset", str(cli_root / "flow_p4")]) == 0
    assert "0 error(s)" in capsys.readouterr().out


@pytest.fixture()
def broken_dataset(cli_root, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in (cli_root / "flow_p4").iterdir():
        (broken / p.name).write_bytes(p.read_bytes())
    rel_file = broken / "flow_p4.rel"
    rel_file.write_text(rel_file.read_text("utf-8") + "r999,geo,g0,g999\n", "utf-8")
    return broken


def test_validate_broken(broken_dataset, capsys):
    assert main(["validate", "--dataset", str(broken_dataset)]) == 2
    out = capsys.readouterr().out
    assert "1 error(s)" in out
    assert "g999" in out


def test_run_on_broken_dataset(broken_dataset, tmp_path, capsys):
    code = main(
        [
            "run",
            "--task", "traffic_state_pred",
            "--model", "HA",
            "--dataset", str(broken_dataset),
            "--output_dir", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "g999" in capsys.readouterr().err


# -- stats / convert ----------------------------------------------------------------


def test_stats(cli_root, capsys):
    assert main(["stats", "--dataset", str(cli_root / "flow_p4")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "flow_p4"
    assert payload["tables"]["dyna"] == 180


def test_convert_roundtrip(tmp_path, capsys):
    raw = tmp_path / "sensors.csv"
    raw.write_text(
        "sensor,ts,speed\ns1,2024-01-01T00:00:00Z,60.0\ns2,2024-01-01T00:00:00Z,55.0\n",
        "utf-8",
    )
    conv = tmp_path / "conv.json"
    conv.write_text(
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
    code = main(
        [
            "convert",
            "--dataset", str(raw),
            "--config_file", str(conv),
            "--output_dir", str(tmp_path / "converted"),
        ]
    )
    assert code == 0
    assert "converted dataset written to" in capsys.readouterr().out
    assert main(["validate", "--dataset", str(tmp_path / "converted" / "speeds")]) == 0


def test_convert_missing_raw(tmp_path, capsys):
    assert main(["convert", "--dataset", str(tmp_path / "nope.csv")]) == 4


def test_convert_without_mapping(tmp_path, capsys):
    raw = tmp_path / "x.csv"
    raw.write_text("a,b\n1,2\n", "utf-8")
    assert main(["convert", "--dataset", str(raw)]) == 3


# -- tune ---------------------------------------------------------------------------


def test_tune_picks_exact_period(cli_root, tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"ha_period": {"values": [3, 4]}}), "utf-8")
    code = main(
        [
            "tune",
            *run_flags(cli_root, tmp_path / "runs"),
            "--space_file", str(space),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 trial(s); best is trial 1" in out
    assert '"ha_period": 4' in out
    assert "best objective: 0.0" in out


def test_tune_bad_space(cli_root, tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"lr": {"low": 0.1, "high": 1.0}}), "utf-8")
    code = main(
        [
            "tune",
            *run_flags(cli_root, tmp_path / "runs"),
            "--space_file", str(space),
            "--search_alg", "GridSearch",
        ]
    )
    assert code == 3  # continuous domain cannot be grid-enumerated
    assert main(["tune", *run_flags(cli_root, tmp_path / "r2")]) == 3  # no space


def test_tune_missing_objective_path(cli_root, tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"ha_period": {"values": [4]}}), "utf-8")
    cfg = tmp_path / "tune.json"
    cfg.write_text(
        json.dumps({"input_window": 4, "output_window": 2, "objective": "val.nope"}),
        "utf-8",
    )
    code = main(
        [
            "tune",
            "--task", "traffic_state_pred",
            "--model", "HA",
            "--dataset", str(cli_root / "flow_p4"),
            "--output_dir", str(tmp_path / "runs"),
            "--config_file", str(cfg),
            "--space_file", str(space),
        ]
    )
    assert code == 3
    assert "error: objective path 'val.nope' not found" in capsys.readouterr().err
    # Nothing was written, so the leaderboard over output_dir ranks nothing.
    assert not list(tmp_path.glob("**/trial_*"))
    leaderboard = ["leaderboard", "--task", "traffic_state_pred"]
    assert main([*leaderboard, "--output_dir", str(tmp_path / "runs")]) == 4
    assert "error: no run records found" in capsys.readouterr().err


def test_tune_failing_after_the_first_trial_leaves_no_runs(cli_root, tmp_path, capsys):
    # Order 30 needs more coefficients than 60 slots can determine, so the
    # second trial fails after the first has written its run.
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"var_order": {"values": [1, 30]}}), "utf-8")
    code = main(
        [
            "tune",
            *run_flags(cli_root, tmp_path / "runs", model="VAR"),
            "--space_file", str(space),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("**/trial_*"))
    with pytest.raises(NoResults):
        build_leaderboard(load_runs(tmp_path / "runs"), "traffic_state_pred")


# -- leaderboard ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def results_dir(cli_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    for model in ("HA", "Persistence"):
        assert main(["run", *run_flags(cli_root, out, model=model)]) == 0
    return out


def test_leaderboard_table(results_dir, capsys):
    code = main(
        ["leaderboard", "--task", "traffic_state_pred", "--output_dir", str(results_dir)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "task: traffic_state_pred  metric: test.aggregate.mae (min)" in out
    lines = [l for l in out.splitlines() if l.strip()]
    ha_line = next(l for l in lines if " HA" in l)
    p_line = next(l for l in lines if "Persistence" in l)
    assert lines.index(ha_line) < lines.index(p_line)  # HA is exact here
    assert f"csv: {results_dir / 'leaderboard.csv'}" in out

    with (results_dir / "leaderboard.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["place", "model", "mean_rank", "n_datasets"]
    assert rows[0][4:] == ["flow_p4"]
    assert [r[1] for r in rows[1:]] == ["HA", "Persistence"]
    assert rows[1][0] == "1"


def test_leaderboard_empty(tmp_path, capsys):
    code = main(
        ["leaderboard", "--task", "traffic_state_pred", "--output_dir", str(tmp_path)]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_leaderboard_needs_task(results_dir, capsys):
    assert main(["leaderboard", "--output_dir", str(results_dir)]) == 3


def test_leaderboard_unknown_task(results_dir, capsys):
    assert main(
        ["leaderboard", "--task", "time_travel", "--output_dir", str(results_dir)]
    ) == 3
