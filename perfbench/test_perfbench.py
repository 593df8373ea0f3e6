"""Self-tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, None, "0"],
        ["a", 1.0, 3.0, 0, "0"],
        ["b", 2.0, 5.0, 0, "0"],  # overlaps a: together they cover [1, 5]
        ["c", 6.0, 9.0, 0, "0"],
        ["d", 7.0, 8.0, 3, "0"],  # grandchild: counts against c, not root
        ["e", 8.5, 9.5, 3, "0"],  # runs past its parent: only [8.5, 9] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.5, 1.0, 1.0])


def test_layer_metrics_totals_self_time_counters_and_medians():
    dump = {
        "spans": [
            ["mapmatch.match", 0.0, 4.0, None, "0"],
            ["mapmatch.route", 0.5, 1.5, 0, "0"],
            ["mapmatch.route", 2.0, 3.0, 0, "0"],
            ["mapmatch.match", 10.0, 12.0, None, "2"],
            ["mapmatch.route", 10.0, 11.5, 3, "2"],
        ],
        "counters": {"0": {"breaks": 3}, "2": {"breaks": 1}},
        "absent": [],
    }
    m = tracing.layer_metrics({"run": tracing.per_op(dump)}, set())
    assert m["mapmatch.match_s"]["value"] == pytest.approx(3.0)  # median of 4 and 2
    assert m["mapmatch.route_s"]["value"] == pytest.approx(1.75)  # median of 2 and 1.5
    assert m["mapmatch.decode_s"]["value"] == pytest.approx(1.25)  # median of 2 and 0.5
    assert m["mapmatch.route_calls"]["value"] == 1.5
    assert m["mapmatch.breaks"]["value"] == 2
    assert m["synthetic.generate_s"]["value"] == 0.0  # no set-up phase given


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (10, None), (11, (100 / 11, 1)), (20, (50.0, 10)), (100, (90.0, 90))],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    result = run.tail_percentile(samples)
    if expected is None:
        assert result is None
        return
    assert result == pytest.approx(expected)
    assert sum(s > result[1] for s in samples) == 10


def test_bad_dataset_path_is_a_failed_operation(tmp_path):
    ops = worker.measure(WORKLOADS["graph_ha"], tmp_path / "missing", tmp_path, 0, None)
    assert len(ops) == 1
    assert "exited 4" in ops[0]["error"]


def test_exception_in_the_program_is_a_failed_operation(tmp_path, monkeypatch):
    from stkit import cli

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", boom)
    elapsed, error = worker.run_op([["run"]], None)
    assert error == "stkit run raised RuntimeError: boom"
    assert elapsed >= 0


def test_install_wraps_imported_names_and_uninstall_restores_them():
    import stkit.cli  # noqa: F401
    from stkit import dataset, runner

    original = dataset.load_dataset
    tracer = tracing.Tracer()
    hooks = tracing.HOOKS + [tracing.Hook("stkit.runner", "no_such_function", "runner.gone")]
    tracer.install(hooks)
    try:
        assert runner.load_dataset is dataset.load_dataset is not original
        assert tracer.absent == ["stkit.runner.no_such_function"]
    finally:
        tracer.uninstall()
    assert runner.load_dataset is dataset.load_dataset is original
    assert tracing.missing_spans(tracer.absent, hooks) == {"runner.gone"}
    # A metric on a span no hook recorded is left out, not reported as 0.
    assert "mapmatch.route_s" not in tracing.layer_metrics({}, {"mapmatch.route"})


def test_benchmark_json_names_what_the_runs_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    ops = [{"seconds": 1.0, "out_bytes": 10, "traced": False}]
    reported = run.end_to_end(ops, [0.5], {"peak_rss_mb": 20.0})
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in reported.items()
    }
    ops.append({"seconds": 1.2, "out_bytes": 10, "traced": True})
    empty = {"spans": [], "counters": {}, "absent": []}
    layers, _ = run.per_layer(ops, empty, empty)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()
    }
