"""The runner forecasts a split one batch at a time into arrays allocated
once per split, and inverse-scales them in place. It is held bit for bit to
the whole-split forecast of ``conftest.whole_split_forecast``, inverse-scaled
as the runner once did, over every scaler, the three forecasting models and
batch sizes that split the windows unevenly, exactly and not at all.
"""

import numpy as np
import pytest

from conftest import whole_split_forecast
from stkit.baselines import PersistenceModel, ha_fit, var_fit
from stkit.exceptions import BadPipelineParams
from stkit.pipeline import SplitSpec, WindowSpec, fit_scaler, make_batches, split_windows
from stkit.runner import _forecast_arrays

N_TRAIN = 72  # of 120 slots at 0.6 / 0.2 / 0.2

MODELS = {
    "HA": lambda values, mask: ha_fit(values, mask, period=12),
    "VAR": lambda values, mask: var_fit(values, mask, order=2),
    "Persistence": lambda values, mask: PersistenceModel(),
}


def scaled_splits(kind: str):
    """The scaler, scaled values and mask of a [120, 4, 2] tensor with 10%
    of cells missing, and its windows split as a run splits them."""
    rng = np.random.default_rng(3)
    raw = rng.gamma(2.0, 5.0, size=(120, 4, 2))  # not negative, so log1p applies
    mask = rng.random(raw.shape) > 0.1
    scaler = fit_scaler(kind, raw[:N_TRAIN], mask[:N_TRAIN])
    values = np.where(mask, scaler.apply(raw), 0.0)
    splits = split_windows(values, mask, WindowSpec(6, 3), SplitSpec(0.6, 0.2, 0.2))
    return scaler, values, mask, splits


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("scaler_kind", ["none", "zscore", "minmax", "log1p"])
def test_batch_at_a_time_forecast_equals_the_whole_split_one(model_name, scaler_kind):
    scaler, values, mask, splits = scaled_splits(scaler_kind)
    model = MODELS[model_name](values[:N_TRAIN], mask[:N_TRAIN])
    for split in ("val", "test"):
        windows = splits[split]
        n = len(windows)
        assert n > 8
        for batch_size in (1, 7, n - 1, n, n + 1):
            pred, truth, held = whole_split_forecast(model, make_batches(windows, batch_size))
            want = (scaler.inverse(pred), scaler.inverse(truth), held)
            got = _forecast_arrays(model, windows, batch_size, scaler)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes(), (split, batch_size)


@pytest.mark.parametrize("batch_size", [0, -1, 2.5, "8", True, None])
def test_a_bad_batch_size_is_refused_before_any_prediction(batch_size):
    scaler, values, mask, splits = scaled_splits("none")

    class Refuses:
        def predict(self, batch):
            raise AssertionError("a batch was gathered")

    with pytest.raises(BadPipelineParams, match=r"^config key batch_size: batch_size must"):
        _forecast_arrays(Refuses(), splits["test"], batch_size, scaler)
