"""Metric suite: regression, ranking, route matching, serialization."""

import math

import numpy as np
import pytest

from stkit.evaluate import (
    evaluate_forecast,
    format_metric_table,
    jsonify_metrics,
    match_metrics,
    ranking_metrics,
    regression_metrics,
)
from stkit.exceptions import (
    AllMasked,
    DuplicateCandidate,
    EmptyCandidateList,
    EmptyTrueRoute,
    HorizonOutOfRange,
)

LOG2_3 = math.log2(3.0)


# -- regression --------------------------------------------------------------


def test_hand_case_errors():
    y = np.array([0.0, 2.0])
    yhat = np.array([1.0, 4.0])
    m = regression_metrics(y, yhat)
    assert m["mae"] == 1.5
    assert m["mse"] == 2.5
    assert m["rmse"] == math.sqrt(2.5)
    assert m["n_cells"] == 2


def test_mape_is_percent():
    m = regression_metrics(np.array([10.0]), np.array([9.0]))
    assert m["mape"] == 10.0
    assert m["n_mape_cells"] == 1


def test_mape_skips_zeros_always():
    y = np.array([0.0, 5.0])
    yhat = np.array([100.0, 6.0])
    m = regression_metrics(y, yhat)
    assert m["mape"] == 20.0
    assert m["n_mape_cells"] == 1


def test_mape_floor_drops_small_magnitudes():
    y = np.array([1.0, 2.0, 10.0])
    yhat = np.array([2.0, 3.0, 12.0])
    m = regression_metrics(y, yhat, mape_floor=5.0)
    assert m["mape"] == 20.0  # only the |y|=10 cell survives
    assert m["n_mape_cells"] == 1
    # MAE and friends are untouched by the floor.
    assert m["mae"] == 4.0 / 3.0


def test_mape_nan_when_nothing_kept():
    m = regression_metrics(np.array([0.0]), np.array([1.0]))
    assert math.isnan(m["mape"])
    assert m["n_mape_cells"] == 0


def test_r2_perfect_and_mean_predictor():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    perfect = regression_metrics(y, y.copy())
    assert perfect["r2"] == 1.0
    assert perfect["evar"] == 1.0
    mean = regression_metrics(y, np.full(4, y.mean()))
    assert mean["r2"] == 0.0
    assert mean["evar"] == 0.0


def test_evar_ignores_bias_r2_does_not():
    y = np.array([1.0, 2.0, 3.0])
    shifted = y + 5.0
    m = regression_metrics(y, shifted)
    assert m["evar"] == 1.0  # constant error has zero variance
    assert m["r2"] < 0.0


def test_zero_variance_flag():
    m = regression_metrics(np.array([3.0, 3.0]), np.array([3.0, 4.0]))
    assert m["zero_variance"]
    assert math.isnan(m["r2"])
    assert math.isnan(m["evar"])


def test_mask_selects_cells():
    y = np.array([1.0, 2.0, 100.0])
    yhat = np.array([2.0, 3.0, 0.0])
    mask = np.array([True, True, False])
    m = regression_metrics(y, yhat, mask)
    assert m["mae"] == 1.0
    assert m["n_cells"] == 2
    # Values behind the mask are completely inert.
    y2 = y.copy()
    y2[2] = -1e12
    assert regression_metrics(y2, yhat, mask) == m


def test_all_masked_raises():
    with pytest.raises(AllMasked):
        regression_metrics(np.ones(3), np.ones(3), np.zeros(3, dtype=bool))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        regression_metrics(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        regression_metrics(np.ones(3), np.ones(3), np.ones(2, dtype=bool))


def test_masked_mae_matches_metrics():
    """A masked MAE is regression_metrics' mae: (1/n) sum |yhat - y| over
    the observed cells."""
    rng = np.random.default_rng(0)
    y = rng.normal(size=(4, 5))
    yhat = rng.normal(size=(4, 5))
    mask = rng.random((4, 5)) < 0.6
    assert regression_metrics(y, yhat, mask)["mae"] == float(np.abs(yhat[mask] - y[mask]).mean())


# -- forecast reports --------------------------------------------------------


def test_evaluate_forecast_per_horizon_equals_slices():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(6, 3, 2))
    truth = rng.normal(size=(6, 3, 2))
    mask = rng.random((6, 3, 2)) < 0.8
    report = evaluate_forecast(pred, truth, mask, horizons=(1, 3, 6))
    assert sorted(report["horizons"]) == ["1", "3", "6"]
    for h in (1, 3, 6):
        direct = regression_metrics(truth[h - 1], pred[h - 1], mask[h - 1])
        assert report["horizons"][str(h)] == direct
    assert report["aggregate"] == regression_metrics(truth, pred, mask)


def test_evaluate_forecast_horizon_bounds():
    pred = np.zeros((3, 2))
    truth = np.ones((3, 2))
    with pytest.raises(HorizonOutOfRange):
        evaluate_forecast(pred, truth, None, horizons=(4,))
    with pytest.raises(HorizonOutOfRange):
        evaluate_forecast(pred, truth, None, horizons=(0,))


def test_report_to_json_replaces_nan():
    pred = np.zeros((2, 2))
    truth = np.full((2, 2), 7.0)
    blob = jsonify_metrics(evaluate_forecast(pred, truth, None, horizons=(1,)))
    assert blob["aggregate"]["r2"] is None  # constant truth
    assert blob["aggregate"]["mae"] == 7.0
    assert blob["horizons"]["1"]["mae"] == 7.0


# -- ranking -----------------------------------------------------------------


def test_ranking_truth_first():
    m = ranking_metrics([("a", ["a", "b", "c"])], k=3)
    assert m["precision_at_k"] == 1.0 / 3.0
    assert m["recall_at_k"] == 1.0
    assert m["mrr_at_k"] == 1.0
    assert m["ndcg_at_k"] == 1.0
    assert m["f1_at_k"] == 0.5  # harmonic mean of 1/3 and 1


def test_ranking_truth_second():
    m = ranking_metrics([("a", ["b", "a", "c"])], k=5)
    assert m["mrr_at_k"] == 0.5
    assert abs(m["ndcg_at_k"] - 1.0 / LOG2_3) < 1e-15


def test_ranking_miss_beyond_k():
    m = ranking_metrics([("a", ["b", "c", "a"])], k=2)
    assert m["recall_at_k"] == 0.0
    assert m["mrr_at_k"] == 0.0
    assert m["ndcg_at_k"] == 0.0
    assert m["f1_at_k"] == 0.0


def test_ranking_averages_over_cases():
    cases = [("a", ["a", "x"]), ("b", ["x", "b"]), ("c", ["x", "y"])]
    m = ranking_metrics(cases, k=2)
    assert m["recall_at_k"] == 2.0 / 3.0
    assert m["precision_at_k"] == 2.0 / 6.0
    assert abs(m["mrr_at_k"] - (1.0 + 0.5) / 3.0) < 1e-15
    assert abs(m["ndcg_at_k"] - (1.0 + 1.0 / LOG2_3) / 3.0) < 1e-15
    assert m["n_cases"] == 3


def test_ranking_validation():
    with pytest.raises(EmptyCandidateList):
        ranking_metrics([("a", [])], k=2)
    with pytest.raises(DuplicateCandidate):
        ranking_metrics([("a", ["b", "b"])], k=2)
    with pytest.raises(ValueError):
        ranking_metrics([], k=2)
    with pytest.raises(ValueError):
        ranking_metrics([("a", ["a"])], k=0)


# -- route matching ----------------------------------------------------------

LENGTHS = {"a": 100.0, "b": 50.0, "c": 25.0}


def test_match_perfect():
    m = match_metrics(["a", "b"], ["a", "b"], LENGTHS)
    assert m["rmf"] == 0.0
    assert m["an"] == 1.0
    assert m["al"] == 1.0
    assert m["d_true"] == 150.0


def test_match_missed_segment():
    m = match_metrics(["a", "b"], ["a"], LENGTHS)
    assert m["d_subtracted"] == 50.0
    assert m["d_added"] == 0.0
    assert m["rmf"] == 50.0 / 150.0
    assert m["an"] == 0.5
    assert m["al"] == 100.0 / 150.0


def test_match_spurious_segment():
    m = match_metrics(["a"], ["a", "c"], LENGTHS)
    assert m["d_added"] == 25.0
    assert m["rmf"] == 0.25
    assert m["an"] == 1.0
    assert m["al"] == 1.0


def test_match_rmf_can_exceed_one():
    m = match_metrics(["c"], ["a", "b"], LENGTHS)
    assert m["rmf"] == (25.0 + 150.0) / 25.0
    assert m["an"] == 0.0


def test_match_routes_are_sets():
    # Repeated ids collapse; order is irrelevant.
    a = match_metrics(["a", "b", "a"], ["b", "a"], LENGTHS)
    b = match_metrics(["a", "b"], ["a", "b"], LENGTHS)
    assert a == b


def test_match_empty_or_zero_truth():
    with pytest.raises(EmptyTrueRoute):
        match_metrics([], ["a"], LENGTHS)
    with pytest.raises(EmptyTrueRoute):
        match_metrics(["z"], ["z"], {"z": 0.0})


def test_match_lengths_total_by_a_left_fold():
    # Ten 0.1 m segments: a left fold from 0.0 gives 0.9999999999999999 on
    # every Python; the builtin sum() of floats gives 1.0 from 3.12 on.
    ids = [f"s{k}" for k in range(10)]
    m = match_metrics(ids, ids[:5], dict.fromkeys(ids, 0.1))
    assert m["d_true"] == 0.9999999999999999
    assert m["d_subtracted"] == 0.1 + 0.1 + 0.1 + 0.1 + 0.1
    assert m["al"] == m["d_correct"] / 0.9999999999999999


# -- serialization helpers ---------------------------------------------------


def test_jsonify_metrics():
    blob = jsonify_metrics(
        {
            "a": float("nan"),
            "b": float("inf"),
            "c": np.float64(1.5),
            "d": np.int64(3),
            "nested": {"e": float("-inf"), "f": 2},
        }
    )
    assert blob == {"a": None, "b": None, "c": 1.5, "d": 3,
                    "nested": {"e": None, "f": 2}}
    assert isinstance(blob["c"], float) and isinstance(blob["d"], int)


def test_format_metric_table_alignment():
    rows = [
        {"model": "HA", "mae": 1.234567890, "r2": float("nan")},
        {"model": "VAR", "mae": 22.5, "r2": 0.75},
    ]
    text = format_metric_table(rows, ["model", "mae", "r2"])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["model", "mae", "r2"]
    assert "1.23457" in lines[2]  # six significant digits
    assert "nan" in lines[2]
    # All rows padded to equal width.
    assert len({len(l) for l in (lines[0], lines[1])}) == 1
