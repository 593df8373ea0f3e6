"""From atomic records to model-ready batches: tensorize a synthetic graph
flow dataset, scale it, split it chronologically, and window each segment."""

import numpy as np

from stkit.pipeline import (
    SplitSpec,
    WindowSpec,
    fit_scaler,
    make_batches,
    split_windows,
)
from stkit.synthetic import generate_synthetic
from stkit.tensorize import build_adjacency, build_time_axis, dyna_to_graph_tensor

ds = generate_synthetic(
    "graph_flow", {"n_nodes": 4, "n_slots": 240, "period": 24}, seed=0
).dataset

axis = build_time_axis(ds.dyna.field("time").present(), ds.manifest.interval_seconds)
geo_order = [g.geo_id for g in ds.geo]
tensor, mask = dyna_to_graph_tensor(ds.dyna, geo_order, axis, features=("flow",))
print("tensor layout:", tensor.layout, "shape:", tensor.shape)  # [T, N, F]
print("axis:", axis.length, "slots of", axis.interval, "s from", axis.start)

adj = build_adjacency(ds.rel, geo_order, symmetrize=True)
print("adjacency row sums:", adj.sum(axis=1))

# Scaler statistics come from training slots only; masked cells are ignored.
T = tensor.shape[0]
train_end = T - int(T * 0.1) - int(T * 0.2)
scaler = fit_scaler("zscore", tensor.values[:train_end], mask.values[:train_end])
scaled = np.where(mask.values, scaler.apply(tensor.values), 0.0)
print(f"train mean/std: {scaler.mean:.2f} / {scaler.std:.2f}")

splits = split_windows(
    scaled, mask.values, WindowSpec(t_in=12, t_out=6), SplitSpec(0.7, 0.1, 0.2), axis=axis
)
# Each split's windows are index ranges over its segment, gathered per batch.
for name, windows in splits.items():
    print(f"{name}: {len(windows)} windows")

batches = make_batches(splits["train"], batch_size=16, shuffle_seed=0)
batch = batches[0]
print("first batch x:", batch["x"].shape, "y:", batch["y"].shape)
print("absolute slots of the first target window:", batch["y_slots"][0])
print("round trip through the scaler is lossless:",
      np.allclose(scaler.inverse(scaler.apply(tensor.values)), tensor.values))
