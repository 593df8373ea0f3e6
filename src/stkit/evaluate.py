"""Metrics for forecasting, ranking, and map matching.

All regression metrics respect the observation mask: only cells with mask=1
enter any sum. MAPE additionally drops cells whose true magnitude is below a
configurable floor (and always drops exact zeros, which have no defined
percentage error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .exceptions import (
    AllMasked,
    BadPipelineParams,
    DuplicateCandidate,
    EmptyCandidateList,
    EmptyTrueRoute,
    HorizonOutOfRange,
)

__all__ = [
    "masked_mae",
    "regression_metrics",
    "RegressionReport",
    "check_horizons",
    "evaluate_forecast",
    "ranking_metrics",
    "match_metrics",
    "jsonify_metrics",
    "format_metric_table",
]


def _prepare(y, yhat, mask):
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: truth {y.shape} vs prediction {yhat.shape}")
    if mask is None:
        m = np.ones(y.shape, dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool)
        if m.shape != y.shape:
            raise ValueError(f"mask shape {m.shape} does not match {y.shape}")
    if not m.any():
        raise AllMasked("no observed cells to evaluate")
    return y[m], yhat[m]


def masked_mae(y, yhat, mask=None) -> float:
    """Mean absolute error over observed cells: (1/n) sum |yhat - y|."""
    yv, pv = _prepare(y, yhat, mask)
    return float(np.abs(pv - yv).mean())


def regression_metrics(y, yhat, mask=None, mape_floor: float = 0.0) -> dict:
    """Pointwise regression metrics over observed cells.

    Returns a dict with mae, mse, rmse (sqrt of mse), mape (percent, over
    cells with |y| >= mape_floor and y != 0), r2, evar, the effective cell
    counts, and a zero_variance flag. Constant truth makes r2/evar undefined:
    they come back NaN with zero_variance True rather than raising.
    """
    yv, pv = _prepare(y, yhat, mask)
    err = pv - yv
    mae = float(np.abs(err).mean())
    mse = float((err**2).mean())
    rmse = math.sqrt(mse)

    keep = np.abs(yv) >= mape_floor
    keep &= yv != 0
    if keep.any():
        mape = float((np.abs(err[keep] / yv[keep])).mean() * 100.0)
    else:
        mape = float("nan")

    var = float(((yv - yv.mean()) ** 2).mean())
    zero_variance = var == 0.0
    if zero_variance:
        r2 = float("nan")
        evar = float("nan")
    else:
        r2 = 1.0 - float((err**2).sum()) / float(((yv - yv.mean()) ** 2).sum())
        evar = 1.0 - float(err.var()) / var
    return {
        "mae": mae,
        "mse": mse,
        "rmse": rmse,
        "mape": mape,
        "r2": r2,
        "evar": evar,
        "n_cells": int(yv.size),
        "n_mape_cells": int(keep.sum()),
        "zero_variance": bool(zero_variance),
    }


@dataclass
class RegressionReport:
    """Aggregate metrics plus per-horizon breakdowns (1-indexed horizons)."""

    aggregate: dict
    horizons: dict[int, dict] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "aggregate": jsonify_metrics(self.aggregate),
            "horizons": {str(h): jsonify_metrics(m) for h, m in self.horizons.items()},
        }


def check_horizons(horizons: Sequence[int], t_out: int) -> None:
    """Raise HorizonOutOfRange unless every horizon falls in [1, t_out]."""
    for h in horizons:
        if not 1 <= h <= t_out:
            raise HorizonOutOfRange(f"horizon {h} outside [1, {t_out}]")


def evaluate_forecast(
    pred: np.ndarray,
    truth: np.ndarray,
    mask: np.ndarray | None,
    horizons: Sequence[int] = (),
    mape_floor: float = 0.0,
) -> RegressionReport:
    """Score a multi-horizon forecast; axis 0 of every array is the horizon.

    ``horizons`` are 1-indexed prediction slots (horizon 3 = pred[2]); each
    must fall inside the prediction window or HorizonOutOfRange is raised.
    The aggregate pools every horizon's cells.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    t_out = pred.shape[0]
    report = RegressionReport(
        aggregate=regression_metrics(truth, pred, mask, mape_floor=mape_floor)
    )
    check_horizons(horizons, t_out)
    for h in horizons:
        m_h = None if mask is None else mask[h - 1]
        report.horizons[int(h)] = regression_metrics(
            truth[h - 1], pred[h - 1], m_h, mape_floor=mape_floor
        )
    return report


def ranking_metrics(cases: Sequence[tuple], k: int) -> dict:
    """Top-k retrieval metrics over cases with exactly one true item each.

    Each case is ``(truth, ranked_candidates)``. With a single relevant item
    per case, every case contributes at most one hit, so
    Precision@k = hits / (N * k), Recall@k = hits / N, F1 is their harmonic
    mean, MRR@k averages 1/rank (0 on a miss), and NDCG@k averages
    1/log2(rank + 1) (0 on a miss), ranks being 1-indexed positions within
    the top k.
    """
    if k <= 0:
        raise BadPipelineParams(f"k must be positive, got {k!r}")
    if not cases:
        raise ValueError("need at least one ranking case")
    hits = 0
    rr_sum = 0.0
    ndcg_sum = 0.0
    for truth, ranked in cases:
        ranked = list(ranked)
        if not ranked:
            raise EmptyCandidateList(f"case with truth {truth!r} has no candidates")
        if len(set(ranked)) != len(ranked):
            raise DuplicateCandidate(
                f"case with truth {truth!r} repeats a candidate"
            )
        top = ranked[:k]
        if truth in top:
            rank = top.index(truth) + 1
            hits += 1
            rr_sum += 1.0 / rank
            ndcg_sum += 1.0 / math.log2(rank + 1)
    n = len(cases)
    precision = hits / (n * k)
    recall = hits / n
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return {
        "precision_at_k": precision,
        "recall_at_k": recall,
        "f1_at_k": f1,
        "mrr_at_k": rr_sum / n,
        "ndcg_at_k": ndcg_sum / n,
        "k": int(k),
        "n_cases": int(n),
    }


def match_metrics(
    true_route: Sequence[str],
    matched_route: Sequence[str],
    segment_lengths: Mapping[str, float],
) -> dict:
    """Route mismatch metrics between a ground-truth and a matched route.

    Treats routes as segment-id sets. With d_sub the total length of true
    segments the match missed and d_add the total length of spurious matched
    segments, RMF = (d_sub + d_add) / total true length (0 is perfect, can
    exceed 1). AN is the fraction of true segments recovered, AL the fraction
    of true length recovered.
    """
    true_set = set(true_route)
    matched_set = set(matched_route)
    if not true_set:
        raise EmptyTrueRoute("ground-truth route has no segments")

    def total(ids):
        # A left fold from 0.0 in sorted order, so equal sets sum to the same
        # float in every process and on every Python (the builtin sum() of
        # floats is compensated from 3.12 on).
        out = 0.0
        for s in sorted(ids):
            out += segment_lengths[s]
        return float(out)

    d_true = total(true_set)
    if d_true <= 0:
        raise EmptyTrueRoute("ground-truth route has zero length")
    correct = true_set & matched_set
    d_sub = total(true_set - matched_set)
    d_add = total(matched_set - true_set)
    d_correct = total(correct)
    return {
        "rmf": (d_sub + d_add) / d_true,
        "an": len(correct) / len(true_set),
        "al": d_correct / d_true,
        "d_true": d_true,
        "d_subtracted": d_sub,
        "d_added": d_add,
        "d_correct": d_correct,
        "n_correct": len(correct),
        "n_true": len(true_set),
        "n_matched": len(matched_set),
    }


def jsonify_metrics(metrics: Mapping) -> dict:
    """Deep-copy a metrics mapping with NaN/inf replaced by None for JSON."""
    out = {}
    for key, value in metrics.items():
        if isinstance(value, Mapping):
            out[key] = jsonify_metrics(value)
        elif isinstance(value, float) and not math.isfinite(value):
            out[key] = None
        elif isinstance(value, (np.floating, np.integer)):
            out[key] = value.item()
        else:
            out[key] = value
    return out


def format_metric_table(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    """Plain aligned text table; floats get six significant digits."""

    def fmt(v):
        if isinstance(v, float):
            return "nan" if math.isnan(v) else f"{v:.6g}"
        return str(v)

    grid = [[fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(columns[i]), *(len(row[i]) for row in grid)) if grid else len(columns[i])
        for i in range(len(columns))
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in grid:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
