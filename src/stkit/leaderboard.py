"""Cross-run comparison: per-dataset ranks averaged into a leaderboard.

Each run directory (as written by the runner) contributes one
(model, dataset) cell. Models are ranked 1..m per dataset on the task's
leaderboard metric in ``runner.TASK_TABLE``, and ordered by their mean rank
across the datasets they ran on. Ties in metric value share the better rank
deterministically by model name; ties in mean rank order by model name. The
result is invariant to the order runs are discovered in.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

from .evaluate import format_metric_table
from .exceptions import BadConfigFile, NoResults
from .runner import STAGING_SUFFIX, TASK_TABLE, TASKS, metric_at

__all__ = [
    "LeaderboardRow",
    "load_runs",
    "build_leaderboard",
    "render_leaderboard",
    "leaderboard_csv",
]

def load_runs(results_dir: Union[str, Path]) -> list[dict]:
    """Collect {task, model, dataset, metrics} from every run under a
    directory, skipping the staging directories of unfinished runs."""
    root = Path(results_dir)
    runs = []
    for run_json in sorted(root.glob("**/run.json")):
        if run_json.parent.name.endswith(STAGING_SUFFIX):
            continue
        payload = json.loads(run_json.read_text("utf-8"))
        metrics_path = run_json.parent / "metrics.json"
        if not metrics_path.is_file():
            continue
        payload["metrics"] = json.loads(metrics_path.read_text("utf-8"))
        runs.append(payload)
    return runs


@dataclass
class LeaderboardRow:
    model: str
    mean_rank: float
    n_datasets: int
    per_dataset: dict[str, tuple[float, int]] = field(default_factory=dict)


def build_leaderboard(runs: Sequence[Mapping], task: str) -> list[LeaderboardRow]:
    """Rank models per dataset on the task's leaderboard metric, then average.

    When a (model, dataset) pair has several runs, the best metric value
    counts. Runs without the metric, or with it None, are skipped. Models
    missing from a dataset are simply not ranked there; their mean runs over
    the datasets they do have.
    """
    if task not in TASKS:
        raise BadConfigFile(f"unknown task {task!r}; pick from {TASKS}")
    spec = TASK_TABLE[task]
    better = min if spec.direction == "min" else max
    cells: dict[tuple[str, str], float] = {}
    if not runs:
        raise NoResults("no run records found")
    for run in runs:
        if run.get("task") != task:
            continue
        try:
            value = metric_at(run.get("metrics", {}), spec.metric)
        except KeyError:
            continue
        if value is None:
            continue
        key = (run["model"], run["dataset"])
        value = float(value)
        cells[key] = better(cells[key], value) if key in cells else value

    datasets = sorted({d for _, d in cells})
    per_model: dict[str, dict[str, tuple[float, int]]] = {}
    for dataset in datasets:
        entries = sorted(
            ((m, v) for (m, d), v in cells.items() if d == dataset),
            key=lambda mv: (mv[1] if spec.direction == "min" else -mv[1], mv[0]),
        )
        rank = 0
        prev = None
        for i, (model, value) in enumerate(entries):
            if prev is None or value != prev:
                rank = i + 1  # ties share the better rank
            prev = value
            per_model.setdefault(model, {})[dataset] = (value, rank)

    if not per_model:
        raise NoResults(f"no runs for task {task!r}")
    rows = [
        LeaderboardRow(
            model=model,
            mean_rank=sum(r for _, r in scores.values()) / len(scores),
            n_datasets=len(scores),
            per_dataset=scores,
        )
        for model, scores in per_model.items()
    ]
    rows.sort(key=lambda r: (r.mean_rank, r.model))
    return rows


def render_leaderboard(rows: Sequence[LeaderboardRow], task: str) -> str:
    """Aligned text table, one line per model."""
    spec = TASK_TABLE[task]
    table = []
    for place, row in enumerate(rows, start=1):
        table.append(
            {
                "place": place,
                "model": row.model,
                "mean_rank": float(row.mean_rank),
                "datasets": row.n_datasets,
            }
        )
    header = f"task: {task}  metric: {spec.metric} ({spec.direction})"
    body = format_metric_table(table, ["place", "model", "mean_rank", "datasets"])
    return f"{header}\n{body}"


def leaderboard_csv(rows: Sequence[LeaderboardRow]) -> str:
    """CSV twin of the text table, one dataset column per dataset seen."""
    datasets = sorted({d for row in rows for d in row.per_dataset})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["place", "model", "mean_rank", "n_datasets"] + datasets)
    for place, row in enumerate(rows, start=1):
        cells = []
        for dataset in datasets:
            if dataset in row.per_dataset:
                value, rank = row.per_dataset[dataset]
                cells.append(f"{value!r}|rank={rank}")
            else:
                cells.append("")
        writer.writerow([place, row.model, repr(row.mean_rank), row.n_datasets] + cells)
    return buf.getvalue()
