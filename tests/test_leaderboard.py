"""Per-task ranking rules of the leaderboard, on hand-made run records."""

import pytest

from stkit.exceptions import BadConfigFile
from stkit.leaderboard import build_leaderboard, render_leaderboard


def nest(dotted, value):
    out = value
    for part in reversed(dotted.split(".")):
        out = {part: out}
    return out


def run(task, model, dataset, metrics):
    return {"task": task, "model": model, "dataset": dataset, "metrics": metrics}


@pytest.mark.parametrize(
    "task, dotted, direction, expected",
    [
        # min: X keeps its best (lowest) run, Q leads, Y and Z tie.
        ("traffic_state_pred", "test.aggregate.mae", "min",
         [("Q", 0.5, 1), ("X", 1.0, 2), ("Y", 2.0, 3), ("Z", 2.0, 3)]),
        ("map_matching", "aggregate.rmf", "min",
         [("Q", 0.5, 1), ("X", 1.0, 2), ("Y", 2.0, 3), ("Z", 2.0, 3)]),
        # max: X keeps its highest run and leads; Y and Z share rank 2.
        ("eval_ranking", "test.recall_at_k", "max",
         [("X", 3.0, 1), ("Y", 2.0, 2), ("Z", 2.0, 2), ("Q", 0.5, 4)]),
    ],
)
def test_leaderboard_metric_and_direction_per_task(task, dotted, direction, expected):
    runs = [
        run(task, "X", "d1", nest(dotted, 1.0)),
        run(task, "X", "d1", nest(dotted, 3.0)),
        run(task, "Y", "d1", nest(dotted, 2.0)),
        run(task, "Z", "d1", nest(dotted, 2.0)),
        run(task, "Q", "d1", nest(dotted, 0.5)),
        run(task, "None", "d1", nest(dotted, None)),  # present but None: skipped
        run(task, "Missing", "d1", nest("val.other", 0.0)),  # no metric: skipped
        run("other_task", "Other", "d1", nest(dotted, 0.0)),
    ]
    rows = build_leaderboard(runs, task)
    got = [(r.model, *r.per_dataset["d1"]) for r in rows]
    assert got == expected
    assert [r.mean_rank for r in rows] == [float(rank) for _, _, rank in expected]
    header = render_leaderboard(rows, task).splitlines()[0]
    assert header == f"task: {task}  metric: {dotted} ({direction})"


def test_leaderboard_rejects_unknown_task():
    with pytest.raises(BadConfigFile, match="unknown task 'time_travel'"):
        build_leaderboard([run("time_travel", "X", "d1", {})], "time_travel")
