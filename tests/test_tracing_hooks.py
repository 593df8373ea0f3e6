"""Every span hook of the benchmark tracer still names a function of stkit,
and the counters built on their results still count.

A renamed or deleted hook target, or a changed return type, would otherwise
drop or zero its per-layer metrics without failing anything.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from stkit import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_tracer_hook_resolves():
    modules = {h.module: importlib.import_module(h.module) for h in tracing.HOOKS}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = tracing.Tracer()
    tracer.install(tracing.HOOKS)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert {name: dict(vars(m)) for name, m in modules.items()} == before


def test_window_counter_counts_the_windows_of_every_split():
    """T=100 at 4-in/2-out and 0.7/0.1/0.2 leaves 65 + 5 + 15 windows, and
    the benchmark's ``windows`` counter must read exactly that: a change of
    ``split_windows``' return type must not silently zero it."""
    tracer = tracing.Tracer()
    tracer.install(tracing.HOOKS)
    try:
        values = np.arange(100, dtype=np.float64).reshape(100, 1)
        mask = np.ones_like(values, dtype=bool)
        splits = pipeline.split_windows(
            values, mask, pipeline.WindowSpec(4, 2), pipeline.SplitSpec(0.7, 0.1, 0.2)
        )
        pipeline.make_batches(splits["train"], 16)
    finally:
        tracer.uninstall()
    assert tracer.counters[tracer.op]["windows"] == 65 + 5 + 15
    names = [span[0] for span in tracer.spans]
    assert names.count("pipeline.make_batches") == 1
    assert names.count("pipeline.split_windows") == 1
