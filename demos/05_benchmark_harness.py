"""Drive the benchmark harness programmatically: generate a dataset, run
two models on it, then build the cross-model leaderboard. The `stkit` CLI
wraps exactly these calls (stkit run / tune / validate / convert / stats /
leaderboard)."""

import json
import tempfile
from pathlib import Path

from stkit.config import load_config
from stkit.leaderboard import build_leaderboard, load_runs, render_leaderboard
from stkit.runner import cmd_run
from stkit.synthetic import generate_synthetic, save_synthetic

root = Path(tempfile.mkdtemp(prefix="stkit_demo_"))
data_dir = root / "data" / "demo_flow"
runs_dir = root / "runs"

save_synthetic(
    generate_synthetic(
        "graph_flow", {"n_nodes": 4, "n_slots": 160, "period": 8, "name": "demo_flow"},
        seed=0,
    ),
    data_dir,
)

for model in ("HA", "Persistence"):
    cfg = load_config(
        cli_args={
            "task": "traffic_state_pred",
            "model": model,
            "dataset": str(data_dir),
            "output_dir": str(runs_dir),
        },
        file_values={"input_window": 8, "output_window": 4, "ha_period": 8},
    )
    record = cmd_run(cfg)
    print(f"{model}: run {record.run_id}")
    print(f"  test MAE = {record.metrics['test']['aggregate']['mae']:.4f}")

# Every run leaves run.json + metrics.json behind; the leaderboard ranks
# models per dataset on the task's leaderboard metric and averages the ranks.
runs = load_runs(runs_dir)
rows = build_leaderboard(runs, "traffic_state_pred")
print()
print(render_leaderboard(rows, "traffic_state_pred"))

best_dir = Path(min(runs, key=lambda r: r["metrics"]["test"]["aggregate"]["mae"])["run_id"])
metrics_file = next(runs_dir.glob(f"{best_dir}/metrics.json"))
print("\nreproducibility: metrics.json is byte-stable for a fixed config and seed;")
print("rerunning the winner writes the identical file to", metrics_file.parent.name)
print("\nartifacts under", root)
