"""Non-neural forecasting baselines: historical average, VAR, persistence.

All models share one batch interface: ``predict(batch)`` maps a batch dict
(as produced by the pipeline's batcher) to predictions shaped like
``batch["y"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BadModelParams,
    EmptyTrainingData,
    InsufficientLength,
    SingularDesign,
)

__all__ = [
    "HAModel",
    "ha_fit",
    "VARModel",
    "var_fit",
    "PersistenceModel",
]


@dataclass
class HAModel:
    """Historical average keyed by slot position within a fixed period.

    ``table[b]`` is the mean of all observed training cells whose absolute
    slot satisfies slot % period == b; a cell never observed in training
    holds its feature's global mean.
    """

    period: int
    table: np.ndarray  # [period, *spatial, D]

    def predict_slots(self, slots: np.ndarray) -> np.ndarray:
        """Forecast for absolute slot indices, shaped [*slots.shape, *spatial, D]."""
        return self.table[np.asarray(slots) % self.period]

    def predict(self, batch: dict) -> np.ndarray:
        return self.predict_slots(batch["y_slots"])


def ha_fit(values: np.ndarray, mask: np.ndarray, period: int, start_slot: int = 0) -> HAModel:
    """Average training cells per (slot % period, spatial cell, feature).

    ``start_slot`` anchors values[0] on the absolute slot axis so the
    periodic phase survives segment slicing. Buckets with no observation use
    the global per-feature mean; zero observed cells overall is an error.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if period <= 0:
        raise BadModelParams("period must be positive", "period")
    if not mask.any():
        raise EmptyTrainingData("no observed cells to average")
    shape = (period,) + values.shape[1:]
    sums = np.zeros(shape, dtype=np.float64)
    counts = np.zeros(shape, dtype=np.int64)
    buckets = (np.arange(values.shape[0]) + start_slot) % period
    observed = np.where(mask, values, 0.0)
    np.add.at(sums, buckets, observed)
    np.add.at(counts, buckets, mask.astype(np.int64))
    table = np.divide(sums, np.maximum(counts, 1), dtype=np.float64)
    # Per-feature global mean over all observed cells, for empty buckets.
    flat_axes = tuple(range(values.ndim - 1))
    counts_f = mask.sum(axis=flat_axes)
    fallback = np.divide(observed.sum(axis=flat_axes), np.maximum(counts_f, 1), dtype=np.float64)
    global_mean = observed.sum() / mask.sum()
    np.copyto(table, np.where(counts_f > 0, fallback, global_mean), where=counts == 0)
    return HAModel(period=period, table=table)


@dataclass
class VARModel:
    """Vector autoregression x_t = c + sum_i A_i x_{t-i} on flattened cells.

    ``coefs[i]`` is A_{i+1} with [target, source] orientation. Forecasts roll
    out recursively, feeding predictions back in as history, one step for
    every sample of a batch at once.
    """

    order: int
    intercept: np.ndarray  # [k]
    coefs: np.ndarray  # [p, k, k]
    target_shape: tuple[int, ...]  # spatial+feature shape behind the flat k

    @property
    def dim(self) -> int:
        return self.intercept.shape[0]

    def predict(self, batch: dict) -> np.ndarray:
        x = np.asarray(batch["x"], dtype=np.float64)
        t_out = batch["y_slots"].shape[1]
        if x.shape[1] < self.order:
            raise InsufficientLength(
                f"need {self.order} history slots, batch has {x.shape[1]}"
            )
        flat = x.reshape(x.shape[0], x.shape[1], -1)
        # The last ``order`` input slots as [B, k] rows, newest last; each
        # step's forecast is appended and fed back as history.
        history = list(flat[:, -self.order :].swapaxes(0, 1))
        preds = np.empty((x.shape[0], t_out, self.dim))
        for h in range(t_out):
            nxt = self.intercept
            for i in range(self.order):
                nxt = nxt + (self.coefs[i] @ history[-1 - i][:, :, None])[:, :, 0]
            preds[:, h] = nxt
            history.append(nxt)
        return preds.reshape((x.shape[0], t_out) + tuple(self.target_shape))


def var_fit(
    values: np.ndarray,
    mask: np.ndarray | None,
    order: int,
    ridge: float = 1e-8,
    max_dim: int = 400,
) -> VARModel:
    """Fit VAR(p) by per-target ordinary least squares on lagged rows.

    The design row for time t is [1, x_{t-1}, ..., x_{t-p}]; coefficients
    solve the ridge-stabilized normal equations (ridge * I added to the Gram
    matrix). Rows whose target cell is masked out are dropped for that target
    equation only. The flattened dimension k is capped at ``max_dim`` since
    the Gram matrix is (1 + p*k)^2.

    The Gram ``G = X^T X`` and ``X^T Y`` are formed once per fit. A target's
    equations downdate them by its dropped rows, ``G - X_d^T X_d``, when
    those rows' squared norms sum to no more than its kept rows' do; the
    subtraction's cancellation then costs at most about twice the rounding
    of the kept rows' own product. Otherwise that target's Gram is formed
    from its kept rows directly. Every product is exact on integer-valued
    data, so such fits are bit-identical to the direct products.
    """
    values = np.asarray(values, dtype=np.float64)
    T = values.shape[0]
    k = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
    flat = values.reshape(T, k)
    if order <= 0:
        raise BadModelParams("order must be positive", "order")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise BadModelParams(
            f"ridge must be finite and non-negative, got {ridge}", "ridge"
        )
    if k > max_dim:
        raise BadModelParams(
            f"flattened dimension {k} exceeds the {max_dim} limit for dense VAR",
            "max_dim",
        )
    if T <= order:
        raise InsufficientLength(f"need more than {order} slots, got {T}")
    n_rows = T - order
    width = 1 + order * k
    if n_rows < width:
        raise InsufficientLength(
            f"{n_rows} usable rows cannot determine {width} coefficients"
        )
    X = np.ones((n_rows, width), dtype=np.float64)
    for i in range(order):
        X[:, 1 + i * k : 1 + (i + 1) * k] = flat[order - 1 - i : T - 1 - i]
    Y = flat[order:]

    flat_mask = None
    if mask is not None:
        flat_mask = np.asarray(mask, dtype=bool).reshape(T, k)[order:]
        if not flat_mask.any():
            raise EmptyTrainingData("every target row is masked out")

    def solve(XtX, XtY):
        XtX = XtX + ridge * np.eye(XtX.shape[0])
        denom = max(float(np.linalg.norm(XtY)), 1e-300)

        def rel_resid(theta):
            return float(np.linalg.norm(XtX @ theta - XtY)) / denom

        try:
            theta = np.linalg.solve(XtX, XtY)
        except np.linalg.LinAlgError:
            theta = None
        if theta is not None and rel_resid(theta) < 1e-8:
            return theta
        theta, *_ = np.linalg.lstsq(XtX, XtY, rcond=None)
        if rel_resid(theta) >= 1e-6:
            raise SingularDesign("normal equations are numerically singular")
        return theta

    G, XtY = X.T @ X, X.T @ Y
    if flat_mask is None or flat_mask.all():
        theta = solve(G, XtY)
    else:
        row_sq = (X * X).sum(1)
        downdate = row_sq @ ~flat_mask <= row_sq @ flat_mask
        theta = np.zeros((width, k), dtype=np.float64)
        for j in range(k):
            keep = flat_mask[:, j]
            if not keep.any():
                raise EmptyTrainingData(f"target {j} has no observed rows")
            if downdate[j]:
                Xd = X[~keep]
                theta[:, j] = solve(G - Xd.T @ Xd, XtY[:, j] - Xd.T @ Y[~keep, j])
            else:
                Xj = X[keep]
                theta[:, j] = solve(Xj.T @ Xj, Xj.T @ Y[keep, j])

    intercept = theta[0].copy()
    coefs = np.stack(
        [theta[1 + i * k : 1 + (i + 1) * k].T for i in range(order)]
    )
    return VARModel(
        order=order,
        intercept=intercept,
        coefs=coefs,
        target_shape=tuple(values.shape[1:]) if values.ndim > 1 else (1,),
    )


@dataclass
class PersistenceModel:
    """Repeat the last observed input slot across the whole horizon."""

    def predict(self, batch: dict) -> np.ndarray:
        x = np.asarray(batch["x"])
        t_out = batch["y_slots"].shape[1]
        last = x[:, -1]
        return np.repeat(last[:, None], t_out, axis=1)
