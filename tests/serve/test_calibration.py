"""Tests for the export-time activation calibration pass.

:func:`calibrate_activation_centers` swaps every activation scaler for an
observing estimator whose EMA center becomes the frozen serving-side
scale.  Each activation tensor must be observed exactly once: observing it
twice double-counts ``num_observations`` and applies the EMA twice to the
same tensor, and ``0.9 * c + 0.1 * c`` is not ``c`` for every integer ``c``
(13 and 21, for instance).
"""

import numpy as np
import pytest

from repro.models import MLP
from repro.serve import export


def _model():
    return MLP(4, hidden=(6, 5), num_classes=3, rng=np.random.default_rng(3))


def _loader(batches: int):
    rng = np.random.default_rng(11)
    return [(rng.standard_normal((8, 4)) * 10.0 ** rng.integers(-4, 4),
             rng.integers(0, 3, size=8))
            for _ in range(batches)]


@pytest.fixture
def observers(monkeypatch):
    """Every observing estimator a calibration pass creates."""
    created = []

    class Recording(export._ObservingEstimator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(export, "_ObservingEstimator", Recording)
    return created


@pytest.mark.parametrize("k", [1, 2, 5])
def test_each_activation_is_observed_once_per_batch(observers, k):
    centers = export.calibrate_activation_centers(
        _model(), "posit(8,1)", _loader(k), max_batches=k)
    assert observers and len(centers) == len(observers)
    for estimator in observers:
        assert estimator.num_observations == k


def test_single_batch_center_is_the_tensor_center(observers):
    """One batch, one observation: the EMA center is Eq. (2)'s integer center."""
    centers = export.calibrate_activation_centers(
        _model(), "posit(8,1)", _loader(1), max_batches=1)
    for center in centers.values():
        assert float(center).is_integer()


def test_activation_hook_applies_the_ema_once():
    """A tensor of center 13 through the hook leaves the center at exactly 13."""
    from repro.core import LayerQuantContext
    from repro.formats import get_quantizer
    from repro.tensor import Tensor

    estimator = export._ObservingEstimator(mode="calibrated")
    context = LayerQuantContext(
        "layer", activation_quantizer=get_quantizer("posit(8,1)"),
        activation_scaler=estimator)
    context.activation(Tensor(np.full(16, 2.0 ** 13)))
    assert estimator.num_observations == 1
    assert estimator.calibrated_center == 13.0
