"""Measured loop of one benchmark run, in a process that runs only this workload.

Started by run.py after set-up, with PYTHONPATH pointing at the checkout's
``src`` and BLAS threads pinned. Runs operations of one workload back to
back until ``--seconds`` have passed, checks each operation's outputs, and
writes a JSON result (per-operation timings, output bytes, errors, peak RSS
and, when tracing, the spans) to ``--result``.

With ``--trace 1`` operations alternate between traced and untraced, starting
traced, so the tracing overhead is the difference of the two medians.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckState, Workload


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_op(argvs: list[list[str]], tracer: tracing.Tracer | None) -> tuple[float, str | None]:
    """Run one operation's CLI calls in this process: (wall seconds, error or None)."""
    from stkit import cli

    sink = io.StringIO()
    span = tracer.span("op") if tracer else contextlib.nullcontext()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            for argv in argvs:
                code = cli.main(argv)
                if code != 0:
                    error = f"stkit {argv[0]} exited {code}: {sink.getvalue()[-300:].strip()}"
                    break
    except Exception as exc:  # a crash is one failed operation, not a failed run
        error = f"stkit {argvs[0][0]} raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def measure(
    workload: Workload, data: Path, work: Path, seconds: float, tracer: tracing.Tracer | None
) -> list[dict]:
    """Operations back to back for ``seconds`` (at least one; two when tracing)."""
    ops = []
    state = CheckState()
    min_ops = 2 if tracer else 1
    started = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - started < seconds:
        i = len(ops)
        out = work / f"op{i}"
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.op = str(i)
            tracer.install(tracing.HOOKS)
        try:
            elapsed, error = run_op(workload.argv(data, work, out), tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if error is None:
            try:
                error = workload.check(out, state)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"output check failed: {type(exc).__name__}: {exc}"
        ops.append(
            {
                "seconds": elapsed,
                "traced": traced,
                "error": error,
                "out_bytes": tree_bytes(out),
            }
        )
        shutil.rmtree(out, ignore_errors=True)
    return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    import stkit.cli  # noqa: F401  (imports every layer before any hook is installed)

    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    ops = measure(workload, workload.data_dir(args.work), args.work, args.seconds, tracer)
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stkit_file": stkit.cli.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    args.result.write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
