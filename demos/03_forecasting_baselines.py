"""Fit the three forecasting baselines on one synthetic series and score
them per horizon with the masked metric suite."""

import numpy as np

from stkit.baselines import PersistenceModel, ha_fit, var_fit
from stkit.evaluate import evaluate_forecast, format_metric_table
from stkit.pipeline import WindowSpec, make_batches, make_windows
from stkit.synthetic import generate_synthetic
from stkit.tensorize import build_time_axis, dyna_to_graph_tensor

ds = generate_synthetic(
    "graph_flow",
    {"n_nodes": 5, "n_slots": 288, "period": 48, "missing_rate": 0.05},
    seed=1,
).dataset
axis = build_time_axis(ds.dyna.field("time").present(), ds.manifest.interval_seconds)
geo_order = [g.geo_id for g in ds.geo]
tensor, mask = dyna_to_graph_tensor(ds.dyna, geo_order, axis, features=("flow",))

T = tensor.shape[0]
train_end = int(T * 0.8)
values, observed = tensor.values, mask.values

models = {
    "HA": ha_fit(values[:train_end], observed[:train_end], period=48),
    "VAR": var_fit(values[:train_end], observed[:train_end], order=2),
    "Persistence": PersistenceModel(),
}

windows = make_windows(
    values[train_end:], observed[train_end:], WindowSpec(12, 12),
    axis=axis, start_slot=train_end,
)
batch = make_batches(windows, batch_size=len(windows))[0]

rows = []
for name, model in models.items():
    pred = model.predict(batch)
    report = evaluate_forecast(
        np.moveaxis(pred, 1, 0),
        np.moveaxis(batch["y"], 1, 0),
        np.moveaxis(batch["y_mask"], 1, 0),
        horizons=(3, 6, 12),
    )
    row = {"model": name, "mae": report.aggregate["mae"], "rmse": report.aggregate["rmse"]}
    for h in (3, 6, 12):
        row[f"mae@{h}"] = report.horizons[h]["mae"]
    rows.append(row)

print(f"{len(windows)} test windows, horizons 3/6/12")
print(format_metric_table(rows, ["model", "mae", "rmse", "mae@3", "mae@6", "mae@12"]))
print("\nHA is exact here because the series repeats with the fitted period.")
