"""stkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload graph_ha --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding ``src/stkit``). Set-up
generates the workload's dataset from ``--seed`` with ``stkit.synthetic``
several times and keeps the last copy. A worker process then runs the
workload's operations for ``--seconds`` and checks every output. The last
line printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from
the traced run with ``--trace 1``). The lines above it are a readable
summary and a ``meta`` line. Scratch files live under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Set-ups per run: at least SETUPS_MIN, more while under SETUP_SECONDS in
# total (at most SETUPS_MAX); setup_s is their median.
SETUPS_MIN, SETUPS_MAX, SETUP_SECONDS = 5, 50, 2.0
BLAS_THREADS = "1"  # one BLAS thread: the program runs single-threaded
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170  # the whole run, set-up included, ends within this


def src_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py")))


def tail_percentile(samples: list[float], min_beyond: int = 10) -> tuple[float, float] | None:
    """The highest nearest-rank percentile with at least ``min_beyond`` samples above it.

    Nearest rank: percentile p is the sorted sample at 1-based rank
    ceil(p/100 * n), which has n - rank samples beyond it. The highest rank
    allowed is n - min_beyond, so p = 100 * (n - min_beyond) / n. Returns
    (p, value), or None when n <= min_beyond and no percentile qualifies.
    """
    n = len(samples)
    rank = n - min_beyond
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def generator_seed(workload, seed: int) -> int:
    """The first of seed * 1000 + k whose dataset the workload accepts."""
    if workload.accept is None:
        return seed
    from stkit.synthetic import generate_synthetic

    for candidate in range(seed * 1000, seed * 1000 + 1000):
        if workload.accept(generate_synthetic(workload.kind, workload.params, seed=candidate)):
            return candidate
    raise RuntimeError(f"no accepted {workload.name} dataset for seed {seed}")


def setup(workload, work: Path, seed: int, tracer: tracing.Tracer | None) -> list[float]:
    """Generate and save the dataset several times; the last copy stays."""
    from stkit.synthetic import generate_synthetic, save_synthetic

    data = workload.data_dir(work)
    times: list[float] = []
    while len(times) < SETUPS_MIN or (
        sum(times) < SETUP_SECONDS and len(times) < SETUPS_MAX
    ):
        k = len(times)
        shutil.rmtree(data, ignore_errors=True)
        if tracer is not None:
            tracer.op = f"setup{k}"
        start = time.perf_counter()
        save_synthetic(generate_synthetic(workload.kind, workload.params, seed=seed), data)
        times.append(time.perf_counter() - start)
    for name, payload in workload.setup_files.items():
        (work / name).write_text(json.dumps(payload), "utf-8")
    return times


def run_worker(args, root: Path, work: Path, deadline: float) -> dict:
    result_path = work / "worker.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    timeout = max(deadline - time.perf_counter(), 1.0)
    # subprocess.run kills and reaps the worker if it overruns.
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=timeout)
    return json.loads(result_path.read_text("utf-8"))


def end_to_end(ops: list[dict], setup_times: list[float], worker: dict) -> dict:
    return {
        "run_s": {"value": statistics.median(o["seconds"] for o in ops), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        "out_bytes": {"value": statistics.median(o["out_bytes"] for o in ops), "unit": "bytes"},
    }


def per_layer(ops: list[dict], setup_dump: dict, worker_dump: dict) -> tuple[dict, dict]:
    """Per-layer metrics plus the median self time of every span name per op."""
    run_ops = tracing.per_op(worker_dump)
    missing = tracing.missing_spans(setup_dump["absent"] + worker_dump["absent"])
    metrics = tracing.layer_metrics(
        {"setup": tracing.per_op(setup_dump), "run": run_ops}, missing
    )
    traced = statistics.median(o["seconds"] for o in ops if o["traced"])
    untraced = statistics.median(o["seconds"] for o in ops if not o["traced"])
    metrics["trace.run_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    names = {n for entry in run_ops.values() for n in entry["self"]}
    self_s = {
        n: statistics.median(e["self"].get(n, 0.0) for e in run_ops.values()) for n in names
    }
    return metrics, dict(sorted(self_s.items(), key=lambda kv: -kv[1]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    started = time.perf_counter()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "stkit" / "__init__.py").is_file():
        print(f"error: no src/stkit under {root}; run from a checkout root", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import numpy
    import stkit.cli  # noqa: F401  (imports every layer before any hook is installed)

    if not Path(stkit.__file__).resolve().is_relative_to(src):
        print(f"error: stkit imported from {stkit.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen_seed = generator_seed(workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(tracing.HOOKS)
        try:
            setup_times = setup(workload, work, gen_seed, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        worker = run_worker(args, root, work, started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not Path(worker["stkit_file"]).resolve().is_relative_to(src):
        print(f"error: worker imported stkit from {worker['stkit_file']}", file=sys.stderr)
        return 2

    ops = worker["ops"]
    errors = [o["error"] for o in ops if o["error"]]
    attempted, failed = len(ops), len(errors)
    timings = [o["seconds"] for o in ops if not o["traced"]]
    tail = tail_percentile(timings)
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "generator_seed": gen_seed,
        "sizes": {"kind": workload.kind, **workload.params},
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines(src),
        "fail_frac": failed / attempted,
        "run_s_samples": len(timings),
        "run_s_tail": {"percentile": tail[0], "value": tail[1]} if tail else None,
        "errors": errors[:5],
    }

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {attempted}  failed {failed}  fail_frac {failed / attempted:.4g}")
    for error in errors[:5]:
        print(f"  failure: {error}")
    if args.trace:
        setup_dump = tracer.dump()
        metrics, self_s = per_layer(ops, setup_dump, worker["trace"])
        meta["self_s"] = self_s
        meta["absent_hooks"] = setup_dump["absent"] + worker["trace"]["absent"]
        trace_dir = root / ".perfbench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload.name}-s{args.seed}.json"
        trace_file.write_text(
            json.dumps({"setup": setup_dump, "run": worker["trace"]}), "utf-8"
        )
        meta["trace_file"] = str(trace_file.relative_to(root))
        print("self seconds per traced operation (median):")
        for name, value in list(self_s.items())[:8]:
            print(f"  {name:32s} {value:10.4f}")
    else:
        metrics = end_to_end(ops, setup_times, worker)
        tail_text = (f"p{tail[0]:.3g} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"run_s over {len(timings)} operations; tail: {tail_text}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
