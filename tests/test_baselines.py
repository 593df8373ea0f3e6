"""Forecasting baselines: historical average, VAR, persistence."""

import numpy as np
import pytest

from stkit.baselines import (
    HAModel,
    PersistenceModel,
    VARModel,
    ha_fit,
    var_fit,
)
from stkit.evaluate import masked_mae
from stkit.exceptions import BadModelParams, EmptyTrainingData, InsufficientLength
from stkit.pipeline import WindowSpec, make_batches, make_windows


def windows_to_batch(values, t_in, t_out, start_slot=0):
    mask = np.ones_like(values, dtype=bool)
    windows = make_windows(values, mask, WindowSpec(t_in, t_out), start_slot=start_slot)
    (batch,) = make_batches(windows, len(windows))
    return batch


# -- historical average ------------------------------------------------------


def test_ha_exact_on_periodic_signal():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    values = np.tile(base, 10).reshape(40, 1)
    mask = np.ones_like(values, dtype=bool)
    model = ha_fit(values, mask, period=4)
    assert model.table[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    batch = windows_to_batch(values, 4, 4)
    assert model.calculate_loss(batch) == 0.0
    pred = model.predict(batch)
    assert np.array_equal(pred, batch["y"])


def test_ha_bucket_is_absolute_slot_phase():
    # Same data, but values[0] sits at absolute slot 2: the phase shifts.
    base = np.array([1.0, 2.0, 3.0, 4.0])
    values = np.tile(base, 3).reshape(12, 1)
    mask = np.ones_like(values, dtype=bool)
    model = ha_fit(values, mask, period=4, start_slot=2)
    assert model.table[:, 0].tolist() == [3.0, 4.0, 1.0, 2.0]
    assert model.predict_slots(np.array([2]))[0, 0] == 1.0


def test_ha_unseen_bucket_falls_back_to_feature_mean():
    values = np.array([[10.0, 100.0], [20.0, 200.0]])  # slots 0, 1 of period 4
    mask = np.ones_like(values, dtype=bool)
    model = ha_fit(values, mask, period=4)
    assert not model.observed[2].any()
    pred = model.predict_slots(np.array([2, 3]))
    assert pred.tolist() == [[15.0, 150.0], [15.0, 150.0]]


def test_ha_partially_observed_cells():
    values = np.array([[1.0, 5.0], [3.0, 7.0]])
    mask = np.array([[True, False], [True, False]])
    model = ha_fit(values, mask, period=2)
    # Feature 1 never observed anywhere: falls back to the global mean.
    assert model.fallback.tolist() == [2.0, 2.0]
    assert model.predict_slots(np.array([0])).tolist() == [[1.0, 2.0]]


def test_ha_period_one_is_global_mean_per_cell():
    values = np.arange(6, dtype=np.float64).reshape(3, 2)
    mask = np.ones_like(values, dtype=bool)
    model = ha_fit(values, mask, period=1)
    assert model.table.tolist() == [[2.0, 3.0]]


def test_ha_errors():
    values = np.ones((3, 1))
    with pytest.raises(ValueError):
        ha_fit(values, np.ones_like(values, dtype=bool), period=0)
    with pytest.raises(EmptyTrainingData):
        ha_fit(values, np.zeros_like(values, dtype=bool), period=1)


def test_ha_predict_uses_y_slots_phase():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    values = np.tile(base, 10).reshape(40, 1)
    mask = np.ones_like(values, dtype=bool)
    model = ha_fit(values, mask, period=4)
    # A window starting mid-series still predicts by absolute phase.
    windows = make_windows(values[20:], mask[20:], WindowSpec(2, 3), start_slot=20)
    (batch,) = make_batches(windows, len(windows))
    assert np.array_equal(model.predict(batch), batch["y"])


# -- VAR ---------------------------------------------------------------------


def simulate_var(coefs, intercept, x0, T, rng=None, noise_std=0.0):
    p, k, _ = coefs.shape
    rows = [np.asarray(r, dtype=np.float64) for r in x0]
    for _ in range(T - len(rows)):
        nxt = intercept.copy()
        for i in range(p):
            nxt = nxt + coefs[i] @ rows[-1 - i]
        if noise_std:
            nxt = nxt + rng.normal(0.0, noise_std, size=k)
        rows.append(nxt)
    return np.asarray(rows)


def test_var1_scalar_recovery():
    coefs = np.array([[[0.5]]])
    intercept = np.array([2.0])
    x0 = np.array([[100.0]])
    values = simulate_var(coefs, intercept, x0, 30)
    model = var_fit(values, None, order=1)
    assert abs(model.coefs[0, 0, 0] - 0.5) < 1e-6
    assert abs(model.intercept[0] - 2.0) < 1e-6


def test_var1_matrix_recovery():
    rng = np.random.default_rng(5)
    A = np.array([[[0.2, 0.1], [0.0, 0.3]]])
    c = np.array([1.0, -0.5])
    x0 = rng.normal(0.0, 100.0, size=(1, 2))
    values = simulate_var(A, c, x0, 12)
    model = var_fit(values, None, order=1)
    assert np.max(np.abs(model.coefs - A)) < 1e-6
    assert np.max(np.abs(model.intercept - c)) < 1e-6


def test_var2_recovery():
    rng = np.random.default_rng(9)
    A = np.array(
        [[[0.4, 0.0], [0.1, 0.2]], [[0.2, 0.05], [0.0, 0.1]]]
    )
    c = np.array([0.5, 1.5])
    x0 = rng.normal(0.0, 100.0, size=(2, 2))
    values = simulate_var(A, c, x0, 14)
    model = var_fit(values, None, order=2)
    assert np.max(np.abs(model.coefs - A)) < 1e-6
    assert np.max(np.abs(model.intercept - c)) < 1e-6


def test_var_fit_matches_normal_equation_oracle():
    # Noisy data, masked fit path, checked against an independent
    # per-target least-squares solve on the same lagged design.
    rng = np.random.default_rng(17)
    T, k, p = 60, 3, 2
    values = rng.normal(0.0, 1.0, size=(T, k))
    mask = rng.random((T, k)) < 0.85
    mask[:, 0] = True  # keep at least one fully dense target
    model = var_fit(values, mask, order=p, ridge=1e-8)

    n_rows = T - p
    width = 1 + p * k
    X = np.ones((n_rows, width))
    for i in range(p):
        X[:, 1 + i * k : 1 + (i + 1) * k] = values[p - 1 - i : T - 1 - i]
    Y = values[p:]
    M = mask[p:]
    for j in range(k):
        keep = M[:, j]
        Xj = X[keep]
        G = Xj.T @ Xj + 1e-8 * np.eye(width)
        theta_j = np.linalg.solve(G, Xj.T @ Y[keep, j])
        assert abs(model.intercept[j] - theta_j[0]) < 1e-8
        for i in range(p):
            got = model.coefs[i, j]
            want = theta_j[1 + i * k : 1 + (i + 1) * k]
            assert np.max(np.abs(got - want)) < 1e-8


def test_var_rollout_recurrence():
    model = VARModel(
        order=1,
        intercept=np.array([0.0]),
        coefs=np.array([[[0.5]]]),
        target_shape=(1,),
    )
    batch = {"x": np.array([[[1.0]]]), "y_slots": np.zeros((1, 3), dtype=np.int64)}
    out = model.predict(batch)[0]
    assert out[:, 0].tolist() == [0.5, 0.25, 0.125]


class PerSampleVAR(VARModel):
    """The per-sample rollout that the batched ``VARModel.predict`` replaced,
    kept verbatim as the reference it must match bit for bit."""

    def step(self, history: np.ndarray) -> np.ndarray:
        """One-step forecast from history[-p:] rows, newest last."""
        x = self.intercept.copy()
        for i in range(self.order):
            x += self.coefs[i] @ history[-1 - i]
        return x

    def rollout(self, history: np.ndarray, t_out: int) -> np.ndarray:
        """Recursive multi-step forecast, [t_out, k]."""
        buf = [np.asarray(row, dtype=np.float64) for row in history]
        out = []
        for _ in range(t_out):
            nxt = self.step(np.asarray(buf))
            out.append(nxt)
            buf.append(nxt)
        return np.asarray(out)

    def predict(self, batch: dict) -> np.ndarray:
        x = np.asarray(batch["x"], dtype=np.float64)
        t_out = batch["y_slots"].shape[1]
        if x.shape[1] < self.order:
            raise InsufficientLength(
                f"need {self.order} history slots, batch has {x.shape[1]}"
            )
        flat = x.reshape(x.shape[0], x.shape[1], -1)
        preds = np.stack(
            [self.rollout(sample[-self.order :], t_out) for sample in flat]
        )
        return preds.reshape((x.shape[0], t_out) + tuple(self.target_shape))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("shape", [(160,), (160, 5, 2), (160, 3, 4, 1)])
def test_var_batched_predict_equals_per_sample_reference(order, shape):
    rng = np.random.default_rng(order * 10 + len(shape))
    values = rng.normal(10.0, 3.0, size=shape)
    mask = rng.random(shape) > 0.05
    values = np.where(mask, values, 0.0)  # masked cells zero-filled, as in runs
    model = var_fit(values[:120], mask[:120], order=order)
    reference = PerSampleVAR(**vars(model))
    windows = make_windows(values[120:], mask[120:], WindowSpec(4, 5), start_slot=120)
    for batch_size in (1, 7, len(windows) + 3):
        for batch in make_batches(windows, batch_size):
            assert_same_bits(model.predict(batch), reference.predict(batch))


def test_var_batched_predict_equals_reference_on_short_history():
    model = var_fit(np.random.default_rng(4).normal(size=(40, 2)), None, order=3)
    reference = PerSampleVAR(**vars(model))
    batch = windows_to_batch(np.ones((10, 2)), 2, 2)
    for m in (model, reference):
        with pytest.raises(InsufficientLength, match="need 3 history slots, batch has 2"):
            m.predict(batch)


def test_var_identity_coefs_behave_like_persistence():
    model = VARModel(
        order=1,
        intercept=np.zeros(2),
        coefs=np.eye(2)[None],
        target_shape=(2,),
    )
    values = np.arange(20, dtype=np.float64).reshape(10, 2)
    batch = windows_to_batch(values, 3, 2)
    assert np.array_equal(model.predict(batch), PersistenceModel().predict(batch))


def test_var_predict_shape_matches_y():
    values = np.random.default_rng(2).normal(size=(30, 2, 2))
    model = var_fit(values, None, order=1)
    batch = windows_to_batch(values, 4, 3)
    pred = model.predict(batch)
    assert pred.shape == batch["y"].shape


def test_var_fit_errors():
    with pytest.raises(ValueError):
        var_fit(np.ones((10, 1)), None, order=0)
    with pytest.raises(ValueError):
        var_fit(np.ones((10, 500)), None, order=1)  # k over the dense cap
    with pytest.raises(InsufficientLength):
        var_fit(np.ones((3, 1)), None, order=3)  # T == order
    with pytest.raises(InsufficientLength):
        # 2 usable rows cannot determine 1 + 1*2 = 3 coefficients.
        var_fit(np.random.default_rng(0).normal(size=(3, 2)), None, order=1)
    mask = np.zeros((30, 1), dtype=bool)
    with pytest.raises(EmptyTrainingData):
        var_fit(np.ones((30, 1)), mask, order=1)


@pytest.mark.parametrize("ridge", [-1.0, -1e-12, float("nan"), float("inf")])
def test_var_fit_rejects_bad_ridge(ridge):
    with pytest.raises(BadModelParams, match="ridge must be finite and non-negative") as err:
        var_fit(np.random.default_rng(0).normal(size=(30, 2)), None, order=1, ridge=ridge)
    assert err.value.param == "ridge"


def test_var_target_with_zero_rows():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(30, 2))
    mask = np.ones((30, 2), dtype=bool)
    mask[1:, 1] = False  # after lag trimming, target 1 has no rows left
    with pytest.raises(EmptyTrainingData):
        var_fit(values, mask, order=1)


def test_var_predict_requires_enough_history():
    model = VARModel(
        order=5,
        intercept=np.zeros(1),
        coefs=np.zeros((5, 1, 1)),
        target_shape=(1,),
    )
    values = np.ones((10, 1))
    batch = windows_to_batch(values, 3, 2)
    with pytest.raises(InsufficientLength):
        model.predict(batch)


# -- persistence ------------------------------------------------------------


def test_persistence_repeats_last_slot():
    values = np.arange(12, dtype=np.float64).reshape(6, 2)
    batch = windows_to_batch(values, 2, 3)
    pred = PersistenceModel().predict(batch)
    assert pred.shape == batch["y"].shape
    # Every horizon equals the last input slot.
    for h in range(3):
        assert np.array_equal(pred[:, h], batch["x"][:, -1])


def test_persistence_empty_horizon():
    values = np.arange(6, dtype=np.float64).reshape(6, 1)
    batch = windows_to_batch(values, 2, 2)
    batch["y_slots"] = batch["y_slots"][:, :0]
    pred = PersistenceModel().predict(batch)
    assert pred.shape[1] == 0


def test_calculate_loss_is_masked_mae():
    values = np.random.default_rng(4).normal(size=(12, 3))
    batch = windows_to_batch(values, 3, 2)
    batch["y_mask"][:, :, 0] = False
    model = PersistenceModel()
    assert model.calculate_loss(batch) == masked_mae(
        batch["y"], model.predict(batch), batch["y_mask"]
    )
