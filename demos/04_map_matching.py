"""Match noisy GPS traces back onto a street grid and score the recovered
routes against the generator's ground truth."""

import numpy as np

from stkit.evaluate import match_metrics
from stkit.mapmatch import MatchParams, build_road_network, viterbi_match
from stkit.synthetic import generate_synthetic
from stkit.tensorize import build_trajectories

result = generate_synthetic(
    "trajectories",
    {
        "n": 6,                  # 6x6 junction grid
        "n_trajectories": 4,
        "route_segments": 10,
        "points_per_segment": 3,
        "noise_sigma_m": 12.0,   # gaussian GPS scatter
    },
    seed=3,
)
ds, truth = result.dataset, result.truth_routes

network = build_road_network(ds.geo, ds.rel)
lengths = network.segment_lengths()
print(f"network: {len(lengths)} directed segments")

params = MatchParams(sigma_m=10.0, beta_m=5.0, radius_m=100.0)
# Trajectory i is rows[ptr[i]:ptr[i+1]] of the table, in time order.
trajs = build_trajectories([d for d in ds.dyna if d.dyna_type == "trajectory"])
lon, lat = (trajs.table.prop(name).tolist() for name in ("lon", "lat"))
points = np.array([lon, lat]).T[trajs.rows]  # [n, 2] (lon, lat), grouped

# One call matches every trajectory; chains stop at trajectory bounds.
run = viterbi_match(network, points, params, trajs.ptr)
for k, user in enumerate(trajs.users):
    res = run.trajectory(k)
    matched_route = res.route()
    scores = match_metrics(truth[user], matched_route, lengths)
    print(
        f"{user}: {len(res.matched)} points -> {len(matched_route)} segments"
        f"  RMF={scores['rmf']:.3f}  AN={scores['an']:.3f}  AL={scores['al']:.3f}"
        f"  breaks={len(res.breaks)}"
    )

# One decoded route in full, against its ground truth.
res = run.trajectory(0)
print("\ntruth  :", " ".join(truth[trajs.users[0]]))
print("matched:", " ".join(res.route()))
