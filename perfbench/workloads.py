"""The pinned workloads: dataset recipe, CLI calls of one operation, output checks.

A workload's dataset is generated by ``stkit.synthetic`` from the benchmark
seed during set-up; the program only sees the saved files. One operation is
one or two in-process ``stkit.cli.main`` calls. After every operation the
workload's check reads what the program wrote and returns an error string,
or None when the outputs are right.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SPACE_FILE = "space.json"


@dataclass
class CheckState:
    """What the first operation of a run wrote, for comparing later ones."""

    metrics_sha: dict[str, str] | None = None
    best: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # stkit.synthetic kind
    params: dict
    # (dataset dir, work dir, op output dir) -> the CLI calls of one operation
    argv: Callable[[Path, Path, Path], list[list[str]]]
    check: Callable[[Path, CheckState], str | None]
    setup_files: dict = field(default_factory=dict)  # name -> JSON payload
    # Set-up draws generator seeds until the generated dataset passes this.
    accept: Callable | None = None

    def data_dir(self, work: Path) -> Path:
        return work / "data" / self.params["name"]


def _metrics_digests(out: Path) -> dict[str, str]:
    """sha256 of every metrics.json under an output directory, by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("**/metrics.json"))
    }


def _check_identical(out: Path, state: CheckState) -> str | None:
    digests = _metrics_digests(out)
    if not digests:
        return "no metrics.json written"
    if state.metrics_sha is None:
        state.metrics_sha = digests
    elif digests != state.metrics_sha:
        return "metrics.json differs from the first operation of this run"
    return None


def _single_metrics(out: Path) -> dict:
    (path,) = out.glob("*/metrics.json")
    return json.loads(path.read_text("utf-8"))


def _check_graph_ha(out: Path, state: CheckState) -> str | None:
    error = _check_identical(out, state)
    if error:
        return error
    mae = _single_metrics(out)["test"]["aggregate"]["mae"]
    if mae != 0.0:
        return f"HA test MAE is {mae!r} on strictly periodic data, expected 0.0"
    return None


def _check_match_hmm(out: Path, state: CheckState) -> str | None:
    error = _check_identical(out, state)
    if error:
        return error
    agg = _single_metrics(out)["aggregate"]
    if agg["an"] != 1.0 or agg["rmf"] != 0.0:
        return f"matched routes differ from truth: an={agg['an']!r} rmf={agg['rmf']!r}"
    return None


def _check_tune(out: Path, state: CheckState) -> str | None:
    error = _check_identical(out, state)
    if error:
        return error
    (search_path,) = out.glob("tune_*/search.json")
    search = json.loads(search_path.read_text("utf-8"))
    if search["n_trials"] != 4 or len(search["trials"]) != 4:
        return f"expected 4 trials, got {search['n_trials']}"
    best = (search["best_trial"], json.dumps(search["best_params"], sort_keys=True))
    if state.best is None:
        state.best = best
    elif best != state.best:
        return f"best trial {best} differs from the first operation's {state.best}"
    if not (out / "leaderboard.csv").is_file():
        return "leaderboard.csv not written"
    return None


def _run_argv(task: str, model: str):
    def argv(data: Path, work: Path, out: Path) -> list[list[str]]:
        return [
            ["run", "--task", task, "--model", model,
             "--dataset", str(data), "--output_dir", str(out)],
        ]

    return argv


def _tune_argv(data: Path, work: Path, out: Path) -> list[list[str]]:
    task = "traffic_state_pred"
    return [
        ["tune", "--task", task, "--model", "VAR",
         "--dataset", str(data),
         "--output_dir", str(out),
         "--space_file", str(work / SPACE_FILE),
         "--search_alg", "GridSearch"],
        ["leaderboard", "--task", task, "--output_dir", str(out)],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="graph_ha",
            why="ingest and artifact bound: stkit run HA where timestamp parsing "
            "and the predictions writer dominate; the matcher never runs",
            kind="graph_flow",
            params={
                "n_nodes": 50, "n_slots": 2016, "interval_seconds": 300,
                "missing_rate": 0.05, "mode": "periodic",
                "name": "bench_graph",
            },
            argv=_run_argv("traffic_state_pred", "HA"),
            check=_check_graph_ha,
        ),
        Workload(
            name="match_hmm",
            why="routing bound: stkit run HMM where Dijkstra dominates; almost no "
            "ingest or tensorize work, so ingest changes should not move it",
            kind="trajectories",
            params={
                "n": 12, "n_trajectories": 40, "route_segments": 30,
                "points_per_segment": 3, "noise_sigma_m": 8.0,
                "name": "bench_traj",
            },
            argv=_run_argv("map_matching", "HMM"),
            check=_check_match_hmm,
            # The generator's self-avoiding walks stop early at random, so
            # point counts spread 2,532-3,138 over 16 seeds and moved run_s by
            # about 10% from seed to seed. Fixing the count to 3,000 +- 30
            # keeps that spread out of the run-to-run comparison.
            accept=lambda result: abs(len(result.dataset.dyna) - 3000) <= 30,
        ),
        Workload(
            name="tune_grid_var",
            why="stkit tune over 4 VAR trials then the leaderboard: one dataset "
            "read four times, so cross-trial reuse shows; grid layout path",
            kind="grid_flow",
            params={
                "rows": 10, "cols": 10, "n_slots": 1008, "interval_seconds": 600,
                "missing_rate": 0.02, "name": "bench_grid",
            },
            argv=_tune_argv,
            check=_check_tune,
            setup_files={
                SPACE_FILE: {
                    "var_order": {"values": [1, 2]},
                    "scaler": {"values": ["none", "zscore"]},
                }
            },
        ),
    )
}
