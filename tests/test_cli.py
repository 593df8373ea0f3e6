"""Exit codes and emitted files for every CLI subcommand."""

import csv
import json
import re
import time
from pathlib import Path

import pytest

from conftest import FAULTS, PARSEABLE_FAULTS, clean_dataset, inject_faults, ranking_dataset
from stkit import exceptions, runner
from stkit.cli import main
from stkit.config import KINDS, Config
from stkit.dataset import load_dataset, save_dataset
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


@pytest.mark.parametrize("command", ["run", "tune"])
def test_unknown_config_keys_exit_3_naming_the_key(cli_root, tmp_path, capsys, command):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"input_window": 4, "var_ordr": 3}), "utf-8")
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"ha_period": {"values": [4]}}), "utf-8")
    flags = [
        "--task", "traffic_state_pred", "--model", "HA",
        "--dataset", str(cli_root / "flow_p4"), "--output_dir", str(tmp_path / "runs"),
        "--config_file", str(cfg),
        *(["--space_file", str(space)] if command == "tune" else []),
    ]
    assert main([command, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config file key 'var_ordr'")
    assert "Traceback" not in err
    # A search-space key is checked the same way.
    space.write_text(json.dumps({"ha_perod": {"values": [4]}}), "utf-8")
    cfg.write_text(json.dumps({"input_window": 4, "output_window": 2}), "utf-8")
    assert main(["tune", *flags[:-2], "--space_file", str(space)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unknown search space key 'ha_perod'")
    assert not (tmp_path / "runs").exists()


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


def test_run_matching_tiny_radius_finishes(cli_root, tmp_path, capsys):
    """A 1e-9 m search radius sizes no data structure, so the run finishes
    at once; the fixture's noise-free points lie on their roads."""
    cfg = tmp_path / "match.json"
    cfg.write_text(json.dumps({"match_radius": 1e-9}), "utf-8")
    started = time.perf_counter()
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
    assert time.perf_counter() - started < 30.0
    assert "Traceback" not in capsys.readouterr().err
    assert code == 0


def test_run_matching_caps_candidates_at_the_segment_count(cli_root, tmp_path):
    """A candidate cap above the network's segment count caps nothing: a run
    at 10**20, past any C long, writes the metrics of a run capped at the
    segment count."""
    n_segments = len(load_dataset(cli_root / "traces").geo)
    written = []
    for cap in (10**20, n_segments):
        cfg = tmp_path / f"cap_{cap}.json"
        cfg.write_text(json.dumps({"match_max_candidates": cap}), "utf-8")
        out = tmp_path / f"runs_{cap}"
        code = main(["run", "--task", "map_matching", "--model", "HMM",
                     "--dataset", str(cli_root / "traces"), "--output_dir", str(out),
                     "--config_file", str(cfg)])
        assert code == 0
        (metrics,) = out.glob("*/metrics.json")
        written.append(metrics.read_bytes())
    assert written[0] == written[1]


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
        # Below the 1 mm floor: the emission overflows, and finite-route
        # transitions fall to -inf.
        ("match_sigma", 1e-300),
        ("match_beta", 1e-320),
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


BAD_MODEL_VALUES = [
    ("VAR", {"var_order": 0}, "var_order"),
    ("HA", {"ha_period": -2}, "ha_period"),
    ("VAR", {"var_max_dim": 1}, "var_max_dim"),  # 3 cells flattened
    ("HA", {"input_window": "abc"}, "input_window"),
    ("HA", {"output_window": 2.7}, "output_window"),
    ("VAR", {"var_order": "abc"}, "var_order"),
    ("VAR", {"var_order": 2.7}, "var_order"),
    ("HA", {"batch_size": "abc"}, "batch_size"),
    ("HA", {"train_ratio": "most"}, "train_ratio"),
    ("VAR", {"var_ridge": -1}, "var_ridge"),
    ("VAR", {"var_order": 3, "input_window": 2}, "var_order"),
    ("VAR", {"var_ridge": float("nan")}, "var_ridge"),
    ("VAR", {"var_ridge": float("inf")}, "var_ridge"),
    ("HA", {"val_ratio": float("nan")}, "val_ratio"),
    ("HA", {"train_ratio": float("nan")}, "train_ratio"),
    ("HA", {"mape_floor": float("nan")}, "mape_floor"),
    # Keys the run does not read, which run.json would still record.
    ("HA", {"ranking_k": float("inf")}, "ranking_k"),
    ("HA", {"conversion": {"target": float("nan")}}, "conversion"),
    ("HA", {"ha_period": 10**30}, "ha_period"),  # a period table past any memory
]


@pytest.mark.parametrize("model, values, key", BAD_MODEL_VALUES)
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


def test_var_order_past_input_window_names_both_keys(cli_root, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"input_window": 2, "output_window": 2, "var_order": 3}), "utf-8")
    flags = run_flags(cli_root, tmp_path / "runs", model="VAR")[:-1]
    assert main(["run", *flags, str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "error: config key var_order: order 3 needs 3 input slots, "
        "but config key input_window is 2\n"
    )


BAD_SEED_TRIALS_AND_HORIZONS = [
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
]


@pytest.mark.parametrize("command, values, key", BAD_SEED_TRIALS_AND_HORIZONS)
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


def test_run_and_convert_read_files_that_start_with_a_byte_order_mark(cli_root, tmp_path, capsys):
    """Excel's "CSV UTF-8" export starts a file with a byte-order mark: a
    dataset whose tables start with one runs to the same metrics, and a raw
    CSV converts to the same tables."""
    marked = tmp_path / "flow_p4"
    marked.mkdir()
    for p in (cli_root / "flow_p4").iterdir():
        data = p.read_bytes()
        (marked / p.name).write_bytes(data if p.suffix == ".json" else b"\xef\xbb\xbf" + data)
    metrics = []
    for data, out in ((cli_root / "flow_p4", tmp_path / "plain"), (marked, tmp_path / "marked")):
        flags = run_flags(cli_root, out)
        flags[flags.index("--dataset") + 1] = str(data)
        assert main(["run", *flags]) == 0
        (path,) = out.glob("*/metrics.json")
        metrics.append(path.read_bytes())
    assert metrics[0] == metrics[1]

    raw = b"sensor,ts,speed\ns1,2024-01-01T00:00:00Z,60.0\ns2,2024-01-01T00:00:00Z,55.0\n"
    conv = write_conversion(tmp_path / "conv.json", target="state", time_column="ts",
                            entity_column="sensor", property_columns=["speed"], name="speeds")
    tables = []
    for name, data in (("plain", raw), ("marked", b"\xef\xbb\xbf" + raw)):
        (tmp_path / f"{name}.csv").write_bytes(data)
        assert main(["convert", "--dataset", str(tmp_path / f"{name}.csv"), "--config_file",
                     str(conv), "--output_dir", str(tmp_path / name)]) == 0
        tables.append([p.read_bytes() for p in sorted((tmp_path / name / "speeds").iterdir())])
    assert tables[0] == tables[1]


def write_conversion(path, **conversion):
    path.write_text(json.dumps({"conversion": conversion}), "utf-8")
    return path


def test_convert_refuses_a_name_that_leaves_the_output_dir(tmp_path, capsys):
    raw = tmp_path / "sensors.csv"
    raw.write_text("sensor,ts,speed\ns1,2024-01-01T00:00:00Z,60.0\n", "utf-8")
    conv = write_conversion(
        tmp_path / "conv.json", target="state", time_column="ts", entity_column="sensor",
        property_columns=["speed"], name="../../escaped",
    )
    before = sorted(tmp_path.rglob("*"))
    argv = ["convert", "--dataset", str(raw), "--config_file", str(conv),
            "--output_dir", str(tmp_path / "a" / "b" / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "config key conversion.name: name '../../escaped' is not a plain file name" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_convert_replaces_the_dataset_directory_of_its_name(tmp_path, capsys):
    raw = tmp_path / "checkins.csv"
    raw.write_text(
        "user,ts,lat,lon,speed\n"
        + "".join(f"u{i},2024-01-01T00:0{i}:00Z,39.9,116.{i},{i}.5\n" for i in range(5)),
        "utf-8",
    )
    out = tmp_path / "converted"
    columns = {"time_column": "ts", "entity_column": "user", "property_columns": ["speed"]}
    for target in ("trajectory", "state"):
        conv = write_conversion(
            tmp_path / f"{target}.json", target=target, lat_column="lat", lon_column="lon",
            name="ck", **columns,
        )
        argv = ["convert", "--dataset", str(raw), "--config_file", str(conv),
                "--output_dir", str(out)]
        assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["ck"]
    assert sorted(p.name for p in (out / "ck").iterdir()) == ["ck.dyna", "ck.geo", "manifest.json"]
    capsys.readouterr()
    assert main(["stats", "--dataset", str(out / "ck")]) == 0
    assert json.loads(capsys.readouterr().out)["tables"] == {"geo": 5, "dyna": 5}


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
    space.write_text(json.dumps({"var_ridge": {"low": 0.1, "high": 1.0}}), "utf-8")
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
    # Order 12 needs more coefficients than the 24 training slots can
    # determine, so the second trial fails after the first has written its
    # run: a run failure. Its 12 input slots are enough for order 12.
    cfg = tmp_path / "long_input.json"
    cfg.write_text(json.dumps({"input_window": 12, "output_window": 2, "train_ratio": 0.4,
                               "val_ratio": 0.3, "test_ratio": 0.3}), "utf-8")
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"var_order": {"values": [1, 12]}}), "utf-8")
    code = main(
        [
            "tune",
            *run_flags(cli_root, tmp_path / "runs", model="VAR")[:-1], str(cfg),
            "--space_file", str(space),
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: 12 usable rows cannot determine 37 coefficients")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("**/trial_*"))
    with pytest.raises(NoResults):
        build_leaderboard(load_runs(tmp_path / "runs"), "traffic_state_pred")


def test_tune_checks_every_trial_config_before_the_first_fit(
    cli_root, tmp_path, capsys, monkeypatch
):
    fits = []
    monkeypatch.setattr(runner, "var_fit", lambda *a, **k: fits.append(a))
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"var_order": {"values": [1, "x"]}}), "utf-8")
    flags = run_flags(cli_root, tmp_path / "runs", model="VAR")
    assert main(["tune", *flags, "--space_file", str(space)]) == 3
    assert capsys.readouterr().err == (
        "error: config key var_order: expected a whole number, got 'x'\n"
    )
    assert fits == []
    assert not (tmp_path / "runs").exists()


# Trials a run would only fail after its fit: a model of another task, and a
# horizon past the output window (small_windows.json's is 2).
TRIAL_MISMATCHES = [
    ({"model": {"values": ["HA", "HMM"]}},
     r"^error: model HMM serves task map_matching, not traffic_state_pred\n$"),
    ({"horizons": {"values": [[1], [5]]}},
     r"^error: config key horizons: horizon 5 outside \[1, 2\]\n$"),
]


@pytest.mark.parametrize("space, where", TRIAL_MISMATCHES, ids=["model", "horizons"])
def test_tune_checks_models_and_horizons_before_the_first_fit(
    cli_root, tmp_path, capsys, monkeypatch, space, where
):
    fits = []
    monkeypatch.setattr(runner, "ha_fit", lambda *a, **k: fits.append(a))
    (tmp_path / "space.json").write_text(json.dumps(space), "utf-8")
    flags = run_flags(cli_root, tmp_path / "runs")
    assert main(["tune", *flags, "--space_file", str(tmp_path / "space.json")]) == 3
    out, err = capsys.readouterr()
    assert not out and re.match(where, err), out + err
    assert fits == []
    assert not (tmp_path / "runs").exists()


def tune_flags(cli_root, tmp_path, space, drop):
    """``run_flags`` for a tune over ``space``, without the flag ``drop``."""
    flags = run_flags(cli_root, tmp_path / "runs")
    at = flags.index(f"--{drop}")
    (tmp_path / "space.json").write_text(json.dumps(space), "utf-8")
    return [*flags[:at], *flags[at + 2 :], "--space_file", str(tmp_path / "space.json")]


@pytest.mark.parametrize(
    "drop, space",
    [
        ("dataset", {"ha_period": {"values": [4]}}),
        ("task", {"ha_period": {"values": [4]}}),
        # A space may choose the model, but not the task.
        ("task", {"task": {"values": ["traffic_state_pred"]}}),
    ],
)
def test_tune_needs_task_and_dataset(cli_root, tmp_path, capsys, drop, space):
    assert main(["tune", *tune_flags(cli_root, tmp_path, space, drop)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: tune needs {drop!r} (flag --{drop})\n"
    assert not (tmp_path / "runs").exists()


def test_tune_takes_the_model_from_the_space(cli_root, tmp_path, capsys):
    space = {"model": {"values": ["HA", "VAR", "Persistence"]}}
    assert main(["tune", *tune_flags(cli_root, tmp_path, space, "model")]) == 0
    assert "3 trial(s); best is trial 0" in capsys.readouterr().out
    assert len(list(tmp_path.glob("runs/tune_*/trial_*/*/metrics.json"))) == 3


def test_tune_is_named_by_the_models_its_space_chooses(cli_root, tmp_path):
    space = {"model": {"values": ["Persistence", "HA"]}}
    assert main(["tune", *tune_flags(cli_root, tmp_path, space, "model")]) == 0
    (tune_dir,) = (tmp_path / "runs").iterdir()
    assert re.fullmatch(
        r"tune_traffic_state_pred_Persistence\+HA_flow_p4_s0_[0-9a-f]{10}", tune_dir.name
    ), tune_dir.name


# -- extreme numeric config values -------------------------------------------------

# Per model: the task, the dataset, and a config that runs to exit 0 on it.
SWEPT_RUNS = {
    "HA": ("traffic_state_pred", "flow_p4", {"input_window": 4, "output_window": 2,
                                             "ha_period": 4}),
    "VAR": ("traffic_state_pred", "flow_p4", {"input_window": 4, "output_window": 2}),
    "HMM": ("map_matching", "traces", {}),
    "Popularity": ("eval_ranking", "checkins", {}),
}


@pytest.mark.parametrize("model", sorted(SWEPT_RUNS))
def test_no_numeric_config_value_ends_in_a_traceback(
    model, cli_root, tmp_path, capsys, monkeypatch
):
    """Each number a run reads, at -1, 0 and a huge value (2**63 for a whole
    number, 1e308 otherwise), exits 0, 3 or 4; a failure prints one error
    line and writes no run directory."""
    task, name, base = SWEPT_RUNS[model]
    data = cli_root / name
    if name == "checkins":
        data = save_dataset(ranking_dataset(), tmp_path / name)

    def run(values, out):
        (tmp_path / "cfg.json").write_text(json.dumps({**base, **values}), "utf-8")
        return main(["run", "--task", task, "--model", model, "--dataset", str(data),
                     "--output_dir", str(out), "--config_file", str(tmp_path / "cfg.json")])

    read = {}

    def reading(method):
        def spy(self, key, *default):
            read.setdefault(key)
            return method(self, key, *default)
        return spy

    with monkeypatch.context() as m:
        m.setattr(Config, "__getitem__", reading(Config.__getitem__))
        m.setattr(Config, "get", reading(Config.get))
        assert run({}, tmp_path / "base") == 0
    numeric = [key for key in read if KINDS.get(key) in (int, float)]
    assert numeric
    failed = []
    for key in numeric:
        for value in (-1, 0, 2**63 if KINDS[key] is int else 1e308):
            capsys.readouterr()
            out = tmp_path / f"{key}_{value}"
            code = run({key: value}, out)
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            if code not in (0, 3, 4) or code and (
                len(errors) != 1 or "Traceback" in err or out.exists()
            ):
                failed.append((key, value, code, err))
    assert not failed


# -- failure matrix: every failure exits with its code and a located message ---------


def fault_case(name):
    """``stkit validate`` on a saved dataset with one fault of the catalog."""
    table, fragment = FAULTS[name][1]

    def build(root, tmp):
        data = tmp / "faulty"
        save_dataset(inject_faults(clean_dataset(), [name])[0], data)
        if name in PARSEABLE_FAULTS:  # the validation report names table:row
            where = rf"^\[error\] {table}:\d+: .*{re.escape(fragment)}"
            return ["validate", "--dataset", str(data)], 2, where
        where = rf"^error: .* \(table={table}, row=\d+, column=\w+\)$"
        return ["validate", "--dataset", str(data)], 3, where

    return build


def config_case(command, model, values, key):
    """A run or tune on flow_p4 with one bad config value."""

    def build(root, tmp):
        cfg = tmp / "bad.json"
        cfg.write_text(
            json.dumps({"input_window": 4, "output_window": 2, **values}), "utf-8"
        )
        space = tmp / "space.json"
        space.write_text(json.dumps({"ha_period": {"values": [4]}}), "utf-8")
        argv = [
            command, "--task", "traffic_state_pred", "--model", model,
            "--dataset", str(root / "flow_p4"), "--output_dir", str(tmp / "out"),
            "--config_file", str(cfg),
            *(["--space_file", str(space)] if command == "tune" else []),
        ]
        return argv, 3, rf"^error: config key {key}: "

    return build


def pipeline_case(task, values, key):
    """A run with one bad pipeline value: forecasting on flow_p4, or ranking
    on the clean dataset with every trajectory kept."""

    def build(root, tmp):
        if task == "eval_ranking":
            model, dataset = "Popularity", tmp / "clean"
            save_dataset(clean_dataset(), dataset)
            cfg_values = {"min_checkins": 0, "min_trajs_per_user": 0, **values}
        else:
            model, dataset = "HA", root / "flow_p4"
            cfg_values = {"input_window": 4, "output_window": 2, **values}
        (tmp / "bad.json").write_text(json.dumps(cfg_values), "utf-8")
        argv = ["run", "--task", task, "--model", model, "--dataset", str(dataset),
                "--output_dir", str(tmp / "out"), "--config_file", str(tmp / "bad.json")]
        return argv, 3, rf"^error: config key {re.escape(key)}: "

    return build


# One per pipeline check; a check that covers several keys names them all.
BAD_PIPELINE_VALUES = [
    ("traffic_state_pred", {"scaler": "foo"}, "scaler"),
    ("traffic_state_pred", {"input_window": 0}, "input_window, output_window"),
    ("traffic_state_pred", {"output_window": -2}, "input_window, output_window"),
    ("traffic_state_pred", {"train_ratio": 0.5}, "train_ratio, val_ratio, test_ratio"),
    ("traffic_state_pred", {"val_ratio": 0.0, "train_ratio": 0.8},
     "train_ratio, val_ratio, test_ratio"),
    ("traffic_state_pred", {"batch_size": 0}, "batch_size"),
    ("traffic_state_pred", {"horizons": [0]}, "horizons"),
    ("traffic_state_pred", {"horizons": [1, 3]}, "horizons"),
    ("eval_ranking", {"ranking_train_ratio": 0.9},
     "ranking_train_ratio, ranking_val_ratio, ranking_test_ratio"),
    ("eval_ranking", {"traj_window_mode": "x"}, "traj_window_mode"),
    ("eval_ranking", {"traj_window_size": 0}, "traj_window_size"),
    ("eval_ranking", {"traj_window_mode": "x", "traj_window_size": 0}, "traj_window_mode"),
    # One-point trajectories, so the validation split of user u0 is not empty.
    ("eval_ranking", {"traj_window_mode": "length", "traj_window_size": 1, "ranking_k": 0,
                      "ranking_train_ratio": 0.1, "ranking_val_ratio": 0.5,
                      "ranking_test_ratio": 0.4}, "ranking_k"),
]


def space_case():
    """A tune whose search space file holds a list."""

    def build(root, tmp):
        (tmp / "space.json").write_text("[]", "utf-8")
        argv = [*run_flags(root, tmp / "out"), "--space_file", str(tmp / "space.json")]
        where = rf"^error: space file {re.escape(str(tmp / 'space.json'))} must hold"
        return ["tune", *argv], 3, where

    return build


def nan_space_case():
    """A tune whose search space offers NaN for a key the run does not read."""

    def build(root, tmp):
        (tmp / "space.json").write_text('{"ranking_k": {"values": [NaN]}}', "utf-8")
        argv = [*run_flags(root, tmp / "out"), "--space_file", str(tmp / "space.json")]
        return ["tune", *argv], 3, r"^error: config key ranking_k: nan is not a finite number$"

    return build


# The flags each command takes in ``kind_case``, by key.
KIND_CASE_FLAGS = {
    "run": ("task", "model", "dataset", "output_dir"),
    "tune": ("task", "model", "dataset", "output_dir", "space_file"),
    "validate": ("dataset",),
    "stats": ("dataset",),
    "convert": ("dataset", "output_dir"),
    "leaderboard": ("task", "output_dir"),
}


def kind_case(command, values, key):
    """``command`` on flow_p4 with a config file holding ``values``, one of
    them of the wrong kind for ``key``; a key in ``values`` has no flag."""

    def build(root, tmp):
        (tmp / "bad.json").write_text(json.dumps(values), "utf-8")
        (tmp / "space.json").write_text(json.dumps({"ha_period": {"values": [4]}}), "utf-8")
        flags = {"task": "traffic_state_pred", "model": "HA", "dataset": str(root / "flow_p4"),
                 "output_dir": str(tmp / "out"), "space_file": str(tmp / "space.json")}
        argv = [command, "--config_file", str(tmp / "bad.json")]
        for name in KIND_CASE_FLAGS[command]:
            if name not in values:
                argv += [f"--{name}", flags[name]]
        return argv, 3, rf"^error: config key {key}: expected .+, got .+$"

    return build


# A value of the wrong kind, read by the command or not.
WRONG_KINDS = [
    ("run", {"output_dir": 5}, "output_dir"),
    *((command, {"dataset": 5}, "dataset") for command in ("run", "validate", "stats", "convert")),
    ("run", {"model": ["HA"]}, "model"),
    ("tune", {"space_file": 5}, "space_file"),
    ("tune", {"objective": 5}, "objective"),
    ("leaderboard", {"output_dir": [1]}, "output_dir"),
    ("run", {"seed": True}, "seed"),
    ("run", {"horizons": [True]}, "horizons"),
    ("run", {"model": "VAR", "var_ridge": "1e-3"}, "var_ridge"),
    ("run", {"var_order": "3"}, "var_order"),  # an HA run does not read it
    ("run", {"scaler": None}, "scaler"),  # None only where the default is None
    ("run", {"conversion": 5}, "conversion"),
]


def bad_domain_case(space, where):
    """A tune over one malformed search space."""

    def build(root, tmp):
        (tmp / "space.json").write_text(json.dumps(space), "utf-8")
        argv = [*run_flags(root, tmp / "out"), "--space_file", str(tmp / "space.json")]
        return ["tune", *argv], 3, where

    return build


BAD_DOMAINS = [
    ({"var_order": {"values": 5}}, r"^error: domain of 'var_order': values must be a "
     r"non-empty list, got 5$"),
    ({"var_order": {"values": "12"}}, r"^error: domain of 'var_order': values must be"),
    ({"var_ridge": {"low": "a", "high": 5}}, r"^error: domain of 'var_ridge': low and high "
     r"must be numbers, got 'a' and 5$"),
    ({"var_ridge": {"low": 0.1, "high": [1]}}, r"^error: domain of 'var_ridge': low and high"),
    ({"var_ridge": {"low": False, "high": 1}}, r"^error: domain of 'var_ridge': low and high"),
    ({"ha_period": {"low": 1, "high": 3, "kind": "int", "log": "yes"}},
     r"^error: domain of 'ha_period': log must be true or false, got 'yes'$"),
    ({"ha_period": {"low": 1, "high": 3, "kind": ["int"]}},
     r"^error: domain of 'ha_period' has unknown kind \['int'\]$"),
    # A domain of the right shape whose value is of the wrong kind.
    ({"var_order": {"values": [1, "x"]}}, r"^error: config key var_order: expected a whole "
     r"number, got 'x'$"),
    # Truncated, these bounds would offer 1, below low.
    ({"ha_period": {"low": 1.5, "high": 3.9, "kind": "int"}},
     r"^error: domain of 'ha_period': int bounds must be whole numbers, got 1\.5 and 3\.9$"),
    ({"var_order": {"low": 1, "high": 2.5, "kind": "int"}},
     r"^error: domain of 'var_order': int bounds must be whole numbers, got 1 and 2\.5$"),
]


def huge_grid_case(key, value):
    """``stkit run`` on a 2 x 2 grid dataset whose manifest declares ``key``
    so large that the dense tensor cannot be indexed or held in memory."""

    def build(root, tmp):
        data = tmp / "grid"
        save_synthetic(
            generate_synthetic("grid_flow", {"rows": 2, "cols": 2, "n_slots": 60}, seed=0), data
        )
        manifest = json.loads((data / "manifest.json").read_text("utf-8"))
        manifest[key] = value
        (data / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        argv = ["run", "--task", "traffic_state_pred", "--model", "HA", "--dataset", str(data),
                "--output_dir", str(tmp / "out"), "--config_file",
                str(root / "small_windows.json")]
        where = (r"^error: a .+ grid over 60 slots needs \d+ bytes as a dense tensor, more than "
                 rf"the \d+ bytes of memory \(table=manifest, column={key}\)$")
        return argv, 3, where

    return build


def far_stamp_case(kind, params, table, cells):
    """``stkit run`` on a synthetic dataset whose manifest sets
    interval_seconds to 1 and whose data row 5 is stamped
    9999-12-31T23:59:59Z: about 2.5e11 slots, past any machine's memory as a
    dense tensor over even one cell."""

    def build(root, tmp):
        data = tmp / "far"
        save_synthetic(generate_synthetic(kind, {**params, "n_slots": 60}, seed=0), data)
        manifest = json.loads((data / "manifest.json").read_text("utf-8"))
        manifest["interval_seconds"] = 1
        (data / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        edit_cell(next(data.glob(f"*.{table}")), 5, "time", "9999-12-31T23:59:59Z")
        argv = ["run", "--task", "traffic_state_pred", "--model", "HA", "--dataset", str(data),
                "--output_dir", str(tmp / "out"), "--config_file",
                str(root / "small_windows.json")]
        where = (r"^error: the time span 2024-01-01T00:00:00Z to 9999-12-31T23:59:59Z "
                 rf"\(251698233600 slots of 1s\) over {cells} cells needs \d+ bytes as a dense "
                 rf"tensor, more than the \d+ bytes of memory \(table={table}, row=5, column=time\)$")
        return argv, 3, where

    return build


GOOD_RUN = b'{"task": "traffic_state_pred", "model": "HA", "dataset": "d"}'


def leaderboard_case(where, run_json=GOOD_RUN, metrics='{"test": {"aggregate": {"mae": 1.5}}}'):
    """``stkit leaderboard`` over one hand-written run record; ``where`` may
    name its {run} and {metrics} files."""

    def build(root, tmp):
        run_dir = tmp / "runs" / "r0"
        run_dir.mkdir(parents=True)
        (run_dir / "run.json").write_bytes(run_json)
        (run_dir / "metrics.json").write_text(metrics, "utf-8")
        argv = ["leaderboard", "--task", "traffic_state_pred", "--output_dir", str(tmp / "runs")]
        files = {"run": run_dir / "run.json", "metrics": run_dir / "metrics.json"}
        return argv, 3, where.format(**{k: re.escape(str(v)) for k, v in files.items()})

    return build


def window_case():
    """A run with the default 12/12 windows on a 200-slot dataset, whose
    validation split holds only 20 slots."""

    def build(root, tmp):
        save_synthetic(
            generate_synthetic(
                "graph_flow", {"n_nodes": 3, "n_slots": 200, "name": "flow_200"}, seed=0
            ),
            tmp / "flow_200",
        )
        argv = ["run", "--task", "traffic_state_pred", "--model", "HA",
                "--dataset", str(tmp / "flow_200"), "--output_dir", str(tmp / "out")]
        where = (r"^error: split val: slots 140\.\.159 hold 20, "
                 r"but input_window \+ output_window = 12 \+ 12 = 24$")
        return argv, 3, where

    return build


RAW_STATES = "sensor,ts,speed\ns1,2024-01-01T00:00:00Z,60.0\n"
RAW_VISITS = "user,ts,lon,lat\nu1,2024-01-01T00:00:00Z,116.4,39.9\n"


def convert_case(raw, conversion, code, where, encoding="utf-8"):
    """``stkit convert`` of one raw CSV under one conversion mapping."""

    def build(root, tmp):
        (tmp / "raw.csv").write_text(raw, encoding)
        (tmp / "conv.json").write_text(json.dumps({"conversion": conversion}), "utf-8")
        argv = ["convert", "--dataset", str(tmp / "raw.csv"),
                "--config_file", str(tmp / "conv.json"), "--output_dir", str(tmp / "out")]
        return argv, code, where

    return build


def geo_order_case(order):
    """``stkit run`` on flow_p4, nodes g0 to g2, whose manifest sets geo_order."""

    def build(root, tmp):
        data = copy_of(root / "flow_p4", tmp / "flow_p4")
        manifest = json.loads((data / "manifest.json").read_text("utf-8"))
        manifest["geo_order"] = order
        (data / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        argv = ["run", *run_flags(root, tmp / "out")]
        argv[argv.index("--dataset") + 1] = str(data)
        return argv, 2, r"^\[error\] manifest: geo_order names 'gX', which is not in \.geo$"

    return build


def left_out_case(command):
    """``stkit validate`` or ``run`` on flow_p4 whose manifest geo_order leaves
    out g1, a .geo id that state rows name."""

    def build(root, tmp):
        data = copy_of(root / "flow_p4", tmp / "flow_p4")
        manifest = json.loads((data / "manifest.json").read_text("utf-8"))
        manifest["geo_order"] = ["g2", "g0"]
        (data / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        argv = [command, "--dataset", str(data)]
        if command == "run":
            argv += ["--task", "traffic_state_pred", "--model", "HA",
                     "--output_dir", str(tmp / "out")]
        return argv, 2, r"^\[error\] dyna:\d+: entity_id 'g1' not in the manifest geo_order$"

    return build


def non_utf8_case(command):
    """``stkit validate`` or ``run`` on flow_p4 whose dyna table holds byte
    0xe9 in data row 3."""

    def build(root, tmp):
        data = copy_of(root / "flow_p4", tmp / "flow_p4")
        lines = (data / "flow_p4.dyna").read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b"state", b"st\xe9te")
        (data / "flow_p4.dyna").write_bytes(b"\n".join(lines))
        argv = [command, "--dataset", str(data)]
        if command == "run":
            argv += ["--task", "traffic_state_pred", "--model", "HA",
                     "--output_dir", str(tmp / "out")]
        return argv, 3, r"^error: byte 0xe9 at offset \d+ is not UTF-8 \(table=dyna, row=3\)$"

    return build


STATES = {"target": "state", "time_column": "ts", "entity_column": "sensor",
          "property_columns": ["speed"]}
VISITS = {"target": "trajectory", "time_column": "ts", "entity_column": "user",
          "lon_column": "lon", "lat_column": "lat"}


# A conversion field of the wrong kind.
BAD_CONVERSIONS = [
    ("time_format", 5, "a string or null"),
    ("lat_column", ["lat"], "a string or null"),
    ("property_columns", 5, "a list of strings"),
    ("property_columns", "abc", "a list of strings"),
    ("property_columns", ["speed", 1], "a list of strings"),
    ("name", ["x"], "a string"),
    ("name", None, "a string"),
    ("time_column", ["t"], "a string"),
    ("target", 5, "a string"),
]


def matching_case(where, truth=None, dyna_lat=None, dataset="traces", code=3):
    """A map-matching run on a copy of a dataset, with its truth routes file
    or every trajectory latitude replaced."""

    def build(root, tmp):
        data = copy_of(root / dataset, tmp / dataset)
        if truth is not None:
            (data / "truth_routes.json").write_text(truth, "utf-8")
        if dyna_lat is not None:
            for row in range(1, len((data / "traces.dyna").read_text().splitlines())):
                edit_cell(data / "traces.dyna", row, "lat", dyna_lat)
        argv = ["run", "--task", "map_matching", "--model", "HMM", "--dataset", str(data),
                "--output_dir", str(tmp / "out")]
        return argv, code, where.format(file=re.escape(str(data / "truth_routes.json")))

    return build


def late_trial_case(space, where):
    """A VAR tune on flow_p4 whose trial 0 runs and writes its run, and
    whose trial 1 fails on a value that only a run checks."""

    def build(root, tmp):
        (tmp / "space.json").write_text(json.dumps(space), "utf-8")
        argv = [*run_flags(root, tmp / "out", model="VAR"), "--space_file", str(tmp / "space.json")]
        return ["tune", *argv], 3, where

    return build


LATE_TRIAL_FAULTS = [
    ({"batch_size": {"values": [32, 0]}},
     r"^error: config key batch_size: batch_size must be a positive integer, got 0$"),
    ({"var_order": {"values": [1, 20]}},
     r"^error: config key var_order: order 20 needs 20 input slots, but config key "
     r"input_window is 4$"),
    ({"train_ratio": {"values": [0.7, 0.9]}},
     r"^error: config key train_ratio, val_ratio, test_ratio: ratios must be finite and "
     r"sum to 1, got 1\.2$"),
]


def blocked_output_case(command, below):
    """``command`` whose --output_dir is a regular file, or lies under one."""

    def build(root, tmp):
        blocker = tmp / "blocker"
        blocker.write_text("a file", "utf-8")
        out = blocker / "sub" if below else blocker
        (tmp / "space.json").write_text(json.dumps({"ha_period": {"values": [4]}}), "utf-8")
        (tmp / "raw.csv").write_text(RAW_STATES, "utf-8")
        (tmp / "conv.json").write_text(json.dumps({"conversion": STATES}), "utf-8")
        argv = {
            "run": ["run", *run_flags(root, out)],
            "tune": ["tune", *run_flags(root, out), "--space_file", str(tmp / "space.json")],
            "convert": ["convert", "--dataset", str(tmp / "raw.csv"), "--config_file",
                        str(tmp / "conv.json"), "--output_dir", str(out)],
        }[command]
        where = rf"^error: config key output_dir: cannot create {re.escape(str(out))}\S*: .+$"
        return argv, 3, where

    return build


FAILURE_MATRIX = [
    *(pytest.param(fault_case(name), id=f"fault-{name}") for name in sorted(FAULTS)),
    *(pytest.param(config_case("run", model, values, key), id=f"model-{n}-{key}")
      for n, (model, values, key) in enumerate(BAD_MODEL_VALUES)),
    *(pytest.param(config_case(command, "HA", values, key), id=f"{command}-{n}-{key}")
      for n, (command, values, key) in enumerate(BAD_SEED_TRIALS_AND_HORIZONS)),
    *(pytest.param(pipeline_case(task, values, key), id=f"pipeline-{n}-{key.replace(', ', '+')}")
      for n, (task, values, key) in enumerate(BAD_PIPELINE_VALUES)),
    *(pytest.param(kind_case(command, values, key), id=f"kind-{n}-{command}-{key}")
      for n, (command, values, key) in enumerate(WRONG_KINDS)),
    *(pytest.param(bad_domain_case(space, where), id=f"domain-{n}")
      for n, (space, where) in enumerate(BAD_DOMAINS)),
    # Each trial writes to its own directory and every trial reads the same files.
    *(pytest.param(bad_domain_case(
        {key: {"values": ["elsewhere"]}},
        rf"^error: search space key '{key}': a trial cannot choose it$",
    ), id=f"space-key-{key}") for key in ("output_dir", "config_file", "space_file")),
    # Past np.intp as a cell index; within it, but past any machine's memory.
    pytest.param(huge_grid_case("grid_rows", 10**30), id="manifest-grid-rows-past-index"),
    pytest.param(huge_grid_case("grid_cols", 10**14), id="manifest-grid-cols-past-memory"),
    # A far stamp makes the time span, not the grid or the geo ordering, too large.
    pytest.param(far_stamp_case("graph_flow", {"n_nodes": 4}, "dyna", 4),
                 id="graph-far-stamp-past-memory"),
    pytest.param(far_stamp_case("grid_flow", {"rows": 2, "cols": 3}, "grid", 6),
                 id="grid-far-stamp-past-memory"),
    *(pytest.param(convert_case(
        RAW_STATES, {**STATES, field: value}, 3,
        rf"^error: config key conversion\.{field}: expected {want}, got {re.escape(repr(value))}$",
    ), id=f"conversion-{n}-{field}") for n, (field, value, want) in enumerate(BAD_CONVERSIONS)),
    *(pytest.param(bad_domain_case(space, where), id=f"tune-trial-{n}")
      for n, (space, where) in enumerate(TRIAL_MISMATCHES)),
    pytest.param(space_case(), id="tune-space-not-an-object"),
    pytest.param(window_case(), id="run-window-longer-than-val"),
    pytest.param(nan_space_case(), id="tune-space-nan"),
    pytest.param(leaderboard_case(
        r"^error: run record {run}: Expecting property name", run_json=b"{not json",
    ), id="leaderboard-run-not-json"),
    pytest.param(leaderboard_case(
        r"^error: run record {run}: 'utf-8' codec can't decode byte 0xe9",
        run_json=b'{"task": "caf\xe9"}',
    ), id="leaderboard-run-not-utf8"),
    pytest.param(leaderboard_case(
        r"^error: run record {run} must hold a JSON object$", run_json=b"[]",
    ), id="leaderboard-run-a-list"),
    pytest.param(leaderboard_case(
        r"^error: run record {run}: model must be a string$",
        run_json=b'{"task": "traffic_state_pred", "dataset": "d"}',
    ), id="leaderboard-run-without-model"),
    pytest.param(leaderboard_case(
        r"^error: run metrics {metrics}: Expecting property name", metrics="{not json",
    ), id="leaderboard-metrics-not-json"),
    pytest.param(leaderboard_case(
        r"^error: run metrics {metrics}: test.aggregate.mae is 'abc', not a number$",
        metrics='{"test": {"aggregate": {"mae": "abc"}}}',
    ), id="leaderboard-metric-a-string"),
    pytest.param(leaderboard_case(
        r"^error: run metrics {metrics}: test.aggregate.mae is True, not a number$",
        metrics='{"test": {"aggregate": {"mae": true}}}',
    ), id="leaderboard-metric-a-bool"),
    pytest.param(convert_case(
        RAW_STATES + "s2,badtime,55.0\n", STATES, 3,
        r"^error: not an ISO-8601 UTC timestamp: 'badtime' \(table=raw, row=2, column=ts\)$",
    ), id="convert-bad-time"),
    pytest.param(convert_case(
        RAW_STATES + ",2024-01-01T00:05:00Z,55.0\n", STATES, 3,
        r"^error: identifier cell is empty \(table=raw, row=2, column=sensor\)$",
    ), id="convert-empty-entity"),
    pytest.param(convert_case(
        RAW_VISITS + ",2024-01-01T00:05:00Z,116.5,39.9\n", VISITS, 3,
        r"^error: identifier cell is empty \(table=raw, row=2, column=user\)$",
    ), id="convert-empty-user"),
    *(pytest.param(convert_case(
        f"sensor,ts,{column}\ns1,2024-01-01T00:00:00Z,60.0\n",
        {**STATES, "property_columns": [column]}, 3,
        rf"^error: config key conversion\.property_columns: property '{column}' "
        r"is a reserved dyna column$",
    ), id=f"convert-property-{column}") for column in ("location", "time")),
    pytest.param(convert_case(
        RAW_STATES, {**STATES, "property_columns": ["speed", "speed"]}, 3,
        r"^error: config key conversion\.property_columns: property 'speed' is repeated$",
    ), id="convert-property-repeated"),
    # A mapped column the raw header repeats is refused, not read from its last copy.
    *(pytest.param(convert_case(
        raw, conversion, 3,
        rf"^error: column '{column}' is repeated \(table=raw, column={column}\)$",
    ), id=f"convert-repeated-{column}") for raw, conversion, column in [
        ("s,ts,lon,lat,lat\ns1,2024-01-01T00:00:00Z,116.4,39.9,95\n",
         {**STATES, "entity_column": "s", "property_columns": [],
          "lon_column": "lon", "lat_column": "lat"}, "lat"),
        ("user,ts,lon,lat,user\nu1,2024-01-01T00:00:00Z,116.4,39.9,u2\n", VISITS, "user"),
        ("sensor,ts,speed,speed\ns1,2024-01-01T00:00:00Z,60.0,61.0\n", STATES, "speed"),
    ]),
    # A state target that sets both coordinate columns needs both, as a trajectory does.
    *(pytest.param(convert_case(
        f"sensor,ts,speed,{present}\ns1,2024-01-01T00:00:00Z,60.0,1.0\n",
        {**STATES, "lon_column": "lon", "lat_column": "lat"}, 3,
        rf"^error: raw CSV has no column '{absent}'$",
    ), id=f"convert-state-without-{absent}") for present, absent in [("lon", "lat"),
                                                                     ("lat", "lon")]),
    pytest.param(convert_case(
        "sensor,ts,speed\ns1,0001-01-01 00:00:00+0500,60.0\n",
        {**STATES, "time_format": "%Y-%m-%d %H:%M:%S%z"}, 3,
        r"^error: date value out of range \(table=raw, row=1, column=ts\)$",
    ), id="convert-time-before-year-1-utc"),
    pytest.param(convert_case(
        RAW_STATES + "s2,2024-01-01T00:05:00Z\n", STATES, 3,
        r"^error: row has 2 cells, header has 3 \(table=raw, row=2, column=speed\)$",
    ), id="convert-short-row"),
    pytest.param(convert_case(
        RAW_VISITS + "u1,2024-01-01T00:05:00Z,116.5,north\n", VISITS, 3,
        r"^error: could not convert string to float: 'north' "
        r"\(table=raw, row=2, column=lat\)$",
    ), id="convert-lat-not-a-number"),
    # A coordinate is a number as the reader types one: ASCII digits only, and
    # no "_", surrounding space, inf or nan, which float() would take.
    *(pytest.param(convert_case(
        RAW_VISITS + f"u1,2024-01-01T00:05:00Z,{lon},{lat}\n", VISITS, 3,
        rf"^error: could not convert string to float: {re.escape(repr(cell))} "
        rf"\(table=raw, row=2, column={column}\)$",
    ), id=f"convert-{column}-{name}") for name, column, cell, lon, lat in [
        ("underscore", "lon", "1_0", "1_0", "39.9"),
        ("spaces", "lat", " 12 ", "116.5", " 12 "),
        ("arabic-indic-digits", "lat", "\u0661\u0662", "116.5", "\u0661\u0662"),
        ("inf", "lon", "inf", "inf", "39.9"),
        ("nan", "lat", "nan", "116.5", "nan"),
    ]),
    pytest.param(convert_case(
        RAW_VISITS + "u1,2024-01-01T00:05:00Z,116.5,95\n", VISITS, 3,
        r"^error: coordinate 95.0 outside \[-90, 90\] \(table=raw, row=2, column=lat\)$",
    ), id="convert-lat-out-of-range"),
    pytest.param(convert_case(
        RAW_STATES + "s\xe9,2024-01-01T00:05:00Z,55.0\n", STATES, 3,
        r"^error: byte 0xe9 at offset 46 is not UTF-8 \(table=raw, row=2\)$",
        encoding="latin-1",
    ), id="convert-not-utf8"),
    pytest.param(non_utf8_case("validate"), id="validate-not-utf8"),
    pytest.param(geo_order_case(["g0", "g1", "g2", "gX"]), id="manifest-geo-order-unknown-id"),
    pytest.param(non_utf8_case("run"), id="run-not-utf8"),
    *(pytest.param(left_out_case(command), id=f"{command}-geo-order-leaves-out-a-state-entity")
      for command in ("validate", "run")),
    pytest.param(convert_case(
        RAW_STATES, {**STATES, "target": "grid"}, 3,
        r"^error: conversion target 'grid' is not 'state' or 'trajectory'$",
    ), id="convert-unknown-target"),
    pytest.param(matching_case(
        r"^error: truth routes file {file}: Expecting", truth="{not json"
    ), id="truth-not-json"),
    pytest.param(matching_case(
        r"^error: truth routes file {file} must hold a JSON object$", truth="[]"
    ), id="truth-a-list"),
    pytest.param(matching_case(
        r"^error: truth routes file {file}: route of user 'u0' must be a "
        r"non-empty list of segment ids, got 's_n0x0_n0x1'$",
        truth='{"u0": "s_n0x0_n0x1"}',
    ), id="truth-route-a-string"),
    pytest.param(matching_case(
        r"^error: truth routes file {file}: route of user 'u0' holds 'nope', "
        r"which is not a segment of the network$",
        truth='{"u0": ["nope"]}',
    ), id="truth-unknown-segment"),
    pytest.param(matching_case(
        r"^error: no candidates within 200.0 m of any", dyna_lat="0.0", code=4
    ), id="run-no-candidates-anywhere"),
    pytest.param(matching_case(
        r"^error: dataset has no trajectory rows to match$", dataset="flow_p4", code=4
    ), id="run-no-trajectories"),
    *(pytest.param(late_trial_case(space, where), id=f"tune-late-trial-{next(iter(space))}")
      for space, where in LATE_TRIAL_FAULTS),
    pytest.param(blocked_output_case("run", below=False), id="run-output-dir-a-file"),
    pytest.param(blocked_output_case("tune", below=True), id="tune-output-dir-under-a-file"),
    pytest.param(blocked_output_case("convert", below=False), id="convert-output-dir-a-file"),
]


def test_exit_codes_by_error_family():
    """Run failures exit 4, a failed validation 2, every other error 3."""
    run_failures = {
        "RunFailure", "DatasetNotFound", "NoResults", "EmptyTable", "EmptyTrainingData",
        "SingularDesign", "InsufficientLength", "AllMasked", "NoCandidatesAnywhere",
    }
    for name in exceptions.__all__:
        want = 2 if name == "ValidationFailed" else 4 if name in run_failures else 3
        assert getattr(exceptions, name).exit_code == want, name


@pytest.mark.parametrize("build", FAILURE_MATRIX)
def test_failure_matrix(cli_root, tmp_path, capsys, build):
    """Every failure exits with its family's code and a message that locates
    it (table and row, config key, file and user), without a traceback and
    without writing anything."""
    argv, code, where = build(cli_root, tmp_path)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert re.search(where, out + err, re.M), out + err
    assert "Traceback" not in err
    if code != 2:  # one error line; a failed validation prints its report
        assert not out and err.count("\n") == 1 and err.startswith("error: "), out + err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "cell, what",
    [("abc", "non-numeric value 'abc'"), ("9" * 400, "too large for a float")],
    ids=["non_numeric", "overflow"],
)
def test_run_bad_feature_cell_exits_with_a_located_error(
    cli_root, tmp_path, capsys, cell, what
):
    data = tmp_path / "flow_p4"
    data.mkdir()
    for p in (cli_root / "flow_p4").iterdir():
        (data / p.name).write_bytes(p.read_bytes())
    dyna = data / "flow_p4.dyna"
    lines = dyna.read_text("utf-8").splitlines()
    assert lines[0].endswith(",flow")
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
    dyna.write_text("\n".join(lines) + "\n", "utf-8")
    flags = run_flags(cli_root, tmp_path / "out")
    flags[flags.index("--dataset") + 1] = str(data)
    assert main(["run", *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: feature 'flow' has ") and what in err
    assert "(table=dyna, row=5, column=flow)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def copy_of(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def edit_cell(path: Path, row: int, column: str, cell: str):
    """Set one cell of a table file; ``row`` counts data rows from 1."""
    rows = list(csv.reader(path.read_text("utf-8").splitlines()))
    rows[row][rows[0].index(column)] = cell
    with path.open("w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def assert_located_exit_3(argv, out: Path, capsys, message: str, where: str):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err[:200]
    assert f"({where})" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, column, cell, message",
    [
        ("grid", "row_id", "1" * 5000, "expected a non-negative integer"),
        ("geo", "coordinates", "[1" + "0" * 400 + ",39.9]",
         "coordinates must be finite"),
        ("geo", "coordinates", "[116.0," + "3" * 5000 + "]",
         "coordinates must be finite"),
    ],
    ids=["grid_index_digits", "coordinate_overflow", "coordinate_digits"],
)
def test_run_huge_integer_cell_exits_with_a_located_error(
    tmp_path, capsys, kind, column, cell, message
):
    if kind == "grid":
        params = {"rows": 2, "cols": 2, "n_slots": 40, "period": 4, "name": "g"}
        result = generate_synthetic("grid_flow", params, seed=2)
    else:
        params = {"n_nodes": 3, "n_slots": 40, "period": 4, "name": "g"}
        result = generate_synthetic("graph_flow", params, seed=0)
    data = tmp_path / "g"
    save_synthetic(result, data)
    edit_cell(data / f"g.{kind}", 2, column, cell)
    out = tmp_path / "out"
    argv = ["run", "--task", "traffic_state_pred", "--model", "HA",
            "--dataset", str(data), "--output_dir", str(out)]
    assert_located_exit_3(
        argv, out, capsys, message, f"table={kind}, row=2, column={column}"
    )


@pytest.mark.parametrize(
    "edits, message, where",
    [
        (None, "trajectory property 'lon' is missing", "row=1, column=lon"),
        ([(4, "lat", "north"), (5, "lon", "east")],
         "trajectory property 'lat' has non-numeric value 'north'",
         "row=4, column=lat"),
        ([(3, "lon", "west"), (6, "lat", "north")],
         "trajectory property 'lon' has non-numeric value 'west'", "row=3, column=lon"),
        ([(2, "lat", "north"), (2, "lon", "west")],
         "trajectory property 'lon' has non-numeric value 'west'", "row=2, column=lon"),
        ([(3, "lon", "")], "trajectory property 'lon' is missing", "row=3, column=lon"),
        ([(2, "lon", "1" + "0" * 400)],
         "trajectory property 'lon' has value 1000", "row=2, column=lon"),
    ],
    ids=["no_lon_column", "non_numeric_lat", "first_bad_row_wins", "lon_first_in_a_row",
         "empty_lon", "lon_too_large"],
)
def test_run_matching_without_numeric_points_exits_with_a_located_error(
    cli_root, tmp_path, capsys, edits, message, where
):
    data = copy_of(cli_root / "traces", tmp_path / "traces")
    dyna = data / "traces.dyna"
    if edits is None:  # drop the lon column
        rows = list(csv.reader(dyna.read_text("utf-8").splitlines()))
        k = rows[0].index("lon")
        with dyna.open("w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerows(r[:k] + r[k + 1:] for r in rows)
    for row, column, cell in edits or ():
        edit_cell(dyna, row, column, cell)
    out = tmp_path / "out"
    argv = ["run", "--task", "map_matching", "--model", "HMM",
            "--dataset", str(data), "--output_dir", str(out)]
    assert_located_exit_3(argv, out, capsys, message, f"table=dyna, {where}")


def test_run_missing_feature_column_exits_with_a_located_error(cli_root, tmp_path, capsys):
    data = copy_of(cli_root / "flow_p4", tmp_path / "flow_p4")
    manifest = json.loads((data / "manifest.json").read_text("utf-8"))
    manifest["features"] = ["flow", "speed"]
    (data / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    flags = run_flags(cli_root, tmp_path / "out")
    flags[flags.index("--dataset") + 1] = str(data)
    assert main(["run", *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: record DynaRecord(dyna_id=")
    assert "lacks declared feature column 'speed' (table=dyna, row=1, column=speed)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# -- manifest.json is checked --------------------------------------------------------


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "edit, message, column",
    [
        ("{", "manifest.json is not JSON", None),
        ("[]", "manifest must be a JSON object", None),
        ({"name": None}, "manifest lacks the dataset name", "name"),
        ({"interval_seconds": "abc"}, "interval_seconds must be an integer or null",
         "interval_seconds"),
        ({"interval_seconds": 0.5}, "interval_seconds must be an integer or null",
         "interval_seconds"),
        ({"interval_seconds": -5}, "interval_seconds must not be negative",
         "interval_seconds"),
        ({"grid_rows": 2.0}, "grid_rows must be an integer or null", "grid_rows"),
        ({"grid_cols": True}, "grid_cols must be an integer or null", "grid_cols"),
        ({"features": "flow"}, "features must be a list of strings or null", "features"),
        ({"geo_order": ["g0", 1]}, "geo_order must be a list of strings or null",
         "geo_order"),
        ({"geo_order": ["g0", "g0", "g1", "g2"]}, "geo_order repeats 'g0'", "geo_order"),
        ({"name": ""}, "name '' is not a plain file name", "name"),
        ({"name": ".."}, "name '..' is not a plain file name", "name"),
        ({"name": "a/b"}, "name 'a/b' is not a plain file name", "name"),
        ({"name": "a\0b"}, "name 'a\\x00b' is not a plain file name", "name"),
        ({"name": 12}, "name must be a string, got 12", "name"),
        ({"name": ["a"]}, "name must be a string, got ['a']", "name"),
        ({"grid_rows": 0}, "grid_rows must be at least 1 or null, got 0", "grid_rows"),
        ({"grid_rows": -2}, "grid_rows must be at least 1 or null, got -2", "grid_rows"),
        ({"grid_cols": 0}, "grid_cols must be at least 1 or null, got 0", "grid_cols"),
        ({"grid_cols": -2}, "grid_cols must be at least 1 or null, got -2", "grid_cols"),
    ],
    ids=["not_json", "not_an_object", "no_name", "interval_text", "interval_fraction",
         "interval_negative", "grid_rows_float", "grid_cols_bool", "features_string",
         "geo_order_int", "geo_order_repeat", "name_empty", "name_parent", "name_separator",
         "name_nul", "name_int", "name_list", "grid_rows_zero", "grid_rows_negative",
         "grid_cols_zero", "grid_cols_negative"],
)
def test_run_bad_manifest_exits_with_a_located_error(
    cli_root, tmp_path, capsys, edit, message, column
):
    data = copy_of(cli_root / "flow_p4", tmp_path / "flow_p4")
    path = data / "manifest.json"
    if isinstance(edit, str):
        path.write_text(edit, "utf-8")
    else:
        manifest = json.loads(path.read_text("utf-8"))
        manifest.update(edit)
        if edit.get("name", "") is None:
            del manifest["name"]
        path.write_text(json.dumps(manifest), "utf-8")
    flags = run_flags(cli_root, tmp_path / "out")
    flags[flags.index("--dataset") + 1] = str(data)
    where = "table=manifest" if column is None else f"table=manifest, column={column}"
    assert_located_exit_3(["run", *flags], tmp_path / "out", capsys, message, where)


def test_run_manifest_name_null_exits_with_a_located_error(cli_root, tmp_path, capsys):
    # A null name once became the string "None": the run looked for None.*
    # tables and exited 4 with no table to forecast.
    data = copy_of(cli_root / "flow_p4", tmp_path / "flow_p4")
    path = data / "manifest.json"
    manifest = json.loads(path.read_text("utf-8"))
    path.write_text(json.dumps({**manifest, "name": None}), "utf-8")
    assert '"name": null' in path.read_text("utf-8")
    flags = run_flags(cli_root, tmp_path / "out")
    flags[flags.index("--dataset") + 1] = str(data)
    assert_located_exit_3(["run", *flags], tmp_path / "out", capsys,
                          "name must be a string, got None", "table=manifest, column=name")


def test_manifest_name_cannot_reach_outside_the_dataset(cli_root, tmp_path, capsys):
    # Unchecked, this name reads tables/x.* two levels above the dataset and
    # writes tables/x_matched.dyna beside the output directory.
    tables = tmp_path / "tables"
    tables.mkdir()
    (tmp_path / "a").mkdir()
    for p in (cli_root / "traces").iterdir():
        if p.name != "manifest.json":
            (tables / p.name.replace("traces", "x")).write_bytes(p.read_bytes())
    data = copy_of(cli_root / "traces", tmp_path / "a" / "traces")
    manifest = json.loads((data / "manifest.json").read_text("utf-8"))
    manifest["name"] = "../../tables/x"
    (data / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    before = files_under(tmp_path)
    out = tmp_path / "out"
    argv = ["run", "--task", "map_matching", "--model", "HMM",
            "--dataset", str(data), "--output_dir", str(out)]
    assert_located_exit_3(
        argv, out, capsys, "name '../../tables/x' is not a plain file name",
        "table=manifest, column=name",
    )
    assert files_under(tmp_path) == before


@pytest.mark.parametrize(
    "edit",
    [{"interval_seconds": 0}, {"interval_seconds": None}, {"features": None},
     {"features": []}, {"geo_order": []}, {"geo_order": None}],
    ids=["interval_zero", "interval_null", "features_null", "features_empty",
         "geo_order_empty", "geo_order_null"],
)
def test_manifest_defaults_give_the_same_run(cli_root, tmp_path, capsys, edit):
    """0 or null interval_seconds is inferred; a null or empty list is unset."""
    data = copy_of(cli_root / "flow_p4", tmp_path / "flow_p4")
    manifest = json.loads((data / "manifest.json").read_text("utf-8"))
    manifest.update(edit)
    (data / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    flags = run_flags(cli_root, tmp_path / "edited")
    flags[flags.index("--dataset") + 1] = str(data)
    assert main(["run", *flags]) == 0
    assert main(["run", *run_flags(cli_root, tmp_path / "plain")]) == 0
    (edited,), (plain,) = (list((tmp_path / d).iterdir()) for d in ("edited", "plain"))
    assert (edited / "metrics.json").read_bytes() == (plain / "metrics.json").read_bytes()
