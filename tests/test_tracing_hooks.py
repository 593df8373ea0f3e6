"""Every span hook of the benchmark tracer still names a function of stkit.

A renamed or deleted hook target would otherwise drop its per-layer metrics
without failing anything.
"""

import importlib
import sys
from pathlib import Path

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
