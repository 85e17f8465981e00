"""Tests for the Fig. 3 quantization transforms and the per-layer context."""

import numpy as np
import pytest

from repro.core import (
    LayerQuantContext,
    ScaleEstimator,
    apply_scaled_quantization,
    fake_quantize,
    grad_quantize,
)
from repro.posit import PositConfig, PositQuantizer, quantize
from repro.tensor import Tensor


CFG_FWD = PositConfig(8, 1)
CFG_BWD = PositConfig(8, 2)


class TestApplyScaledQuantization:
    def test_equation_3(self, rng):
        """px = P(x / Sf) * Sf."""
        values = rng.standard_normal(100) * 0.01
        quantizer = PositQuantizer(CFG_FWD)
        scale = 2.0**-5
        result = apply_scaled_quantization(values, quantizer, scale)
        np.testing.assert_array_equal(result, np.asarray(quantize(values / scale, CFG_FWD)) * scale)

    def test_unit_scale_shortcut(self, rng):
        values = rng.standard_normal(20)
        quantizer = PositQuantizer(CFG_FWD)
        np.testing.assert_array_equal(
            apply_scaled_quantization(values, quantizer, 1.0),
            np.asarray(quantize(values, CFG_FWD)),
        )

    def test_shifting_improves_small_magnitude_fidelity(self, rng):
        """The whole point of Eq. (3): small-magnitude tensors lose less."""
        values = rng.standard_normal(2000) * 1e-4
        quantizer = PositQuantizer(PositConfig(8, 0))
        direct = apply_scaled_quantization(values, quantizer, 1.0)
        from repro.core import compute_scale_factor

        scale = compute_scale_factor(values)
        shifted = apply_scaled_quantization(values, quantizer, scale)
        assert np.abs(shifted - values).mean() < np.abs(direct - values).mean()


class TestFakeQuantize:
    def test_forward_values_on_grid(self, rng):
        x = Tensor(rng.standard_normal(50), requires_grad=True)
        out = fake_quantize(x, PositQuantizer(CFG_FWD))
        np.testing.assert_array_equal(out.data, np.asarray(quantize(x.data, CFG_FWD)))

    def test_straight_through_gradient(self, rng):
        x = Tensor(rng.standard_normal(50), requires_grad=True)
        out = fake_quantize(x, PositQuantizer(CFG_FWD))
        upstream = rng.standard_normal(50)
        out.backward(upstream)
        np.testing.assert_array_equal(x.grad, upstream)

    def test_scaler_applied(self, rng):
        x = Tensor(rng.standard_normal(100) * 1e-4, requires_grad=True)
        scaler = ScaleEstimator(sigma=2)
        out = fake_quantize(x, PositQuantizer(CFG_FWD), scaler)
        scale = scaler.scale_for(x.data)
        np.testing.assert_array_equal(
            out.data, np.asarray(quantize(x.data / scale, CFG_FWD)) * scale
        )


class TestGradQuantize:
    def test_forward_is_identity(self, rng):
        x = Tensor(rng.standard_normal(30), requires_grad=True)
        out = grad_quantize(x, PositQuantizer(CFG_BWD))
        np.testing.assert_array_equal(out.data, x.data)

    def test_backward_gradient_on_grid(self, rng):
        x = Tensor(rng.standard_normal(30), requires_grad=True)
        out = grad_quantize(x, PositQuantizer(CFG_BWD))
        upstream = rng.standard_normal(30)
        out.backward(upstream)
        np.testing.assert_array_equal(x.grad, np.asarray(quantize(upstream, CFG_BWD)))

    def test_stats_recorded_on_backward(self, rng):
        from repro.core import RoleStats

        stats = RoleStats()
        x = Tensor(rng.standard_normal(30), requires_grad=True)
        out = grad_quantize(x, PositQuantizer(CFG_BWD), stats=stats)
        out.backward(rng.standard_normal(30))
        assert stats.calls == 1
        assert stats.elements == 30


class TestLayerQuantContext:
    def make_context(self, **kwargs):
        return LayerQuantContext(
            "layer0",
            weight_quantizer=PositQuantizer(CFG_FWD),
            activation_quantizer=PositQuantizer(CFG_FWD),
            error_quantizer=PositQuantizer(CFG_BWD),
            weight_grad_quantizer=PositQuantizer(CFG_BWD),
            **kwargs,
        )

    def test_weight_and_activation_quantized(self, rng):
        context = self.make_context()
        w = Tensor(rng.standard_normal(40), requires_grad=True)
        assert np.array_equal(context.weight(w).data, np.asarray(quantize(w.data, CFG_FWD)))
        a = Tensor(rng.standard_normal(40))
        assert np.array_equal(context.activation(a).data, np.asarray(quantize(a.data, CFG_FWD)))

    def test_weight_grad_hook_uses_backward_format(self, rng):
        context = self.make_context()
        grad = rng.standard_normal(25)
        np.testing.assert_array_equal(context.weight_grad(grad),
                                      np.asarray(quantize(grad, CFG_BWD)))

    def test_param_hook_uses_forward_format(self, rng):
        context = self.make_context()
        data = rng.standard_normal(25)
        np.testing.assert_array_equal(context.param(data),
                                      np.asarray(quantize(data, CFG_FWD)))

    def test_disabled_context_passthrough(self, rng):
        context = self.make_context()
        context.enabled = False
        values = rng.standard_normal(10)
        tensor = Tensor(values)
        assert context.weight(tensor) is tensor
        np.testing.assert_array_equal(context.weight_grad(values), values)

    def test_none_quantizer_means_full_precision(self, rng):
        context = LayerQuantContext("fp_layer")
        values = rng.standard_normal(10)
        tensor = Tensor(values)
        assert context.weight(tensor) is tensor
        assert context.error(tensor) is tensor
        np.testing.assert_array_equal(context.param(values), values)

    def test_stats_accumulate(self, rng):
        context = self.make_context()
        context.weight(Tensor(rng.standard_normal(16)))
        context.weight(Tensor(rng.standard_normal(16)))
        assert context.stats["weight"].calls == 2
        assert context.stats["weight"].elements == 32
        assert context.stats["weight"].log2_range >= 0

    def test_describe_reports_formats(self):
        description = self.make_context().describe()
        assert description["formats"]["weight"] == "posit(8,1)"
        assert description["formats"]["error"] == "posit(8,2)"
        # A context without quantizers reports fp32.
        assert LayerQuantContext("x").describe()["formats"]["weight"] == "fp32"

    def test_scalers_per_role(self, rng):
        context = LayerQuantContext(
            "scaled",
            weight_quantizer=PositQuantizer(CFG_FWD),
            weight_scaler=ScaleEstimator(sigma=2),
        )
        weights = Tensor(rng.standard_normal(200) * 1e-3, requires_grad=True)
        quantized = context.weight(weights)
        # With shifting, small weights survive the 8-bit format much better.
        direct = np.asarray(quantize(weights.data, CFG_FWD))
        assert np.abs(quantized.data - weights.data).mean() <= np.abs(direct - weights.data).mean()


class _CountingEstimator(ScaleEstimator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def scale_for(self, x, logs=None):
        self.calls += 1
        return super().scale_for(x, logs)


def _calibrated(center=-3.0, **kwargs):
    estimator = _CountingEstimator(mode="calibrated", **kwargs)
    estimator.set_center(center)
    return estimator


#: Tensors whose magnitude pass has to drop something: zeros, NaN, ±inf,
#: all of them at once, and nothing at all.
AWKWARD_TENSORS = {
    "normal": np.random.default_rng(5).standard_normal((3, 7)) * 1e-3,
    "zeros": np.array([0.0, -0.0, 0.25, 0.0, -8.0]),
    "non_finite": np.array([np.nan, np.inf, -np.inf, 3.0, -0.5, 0.0]),
    "all_zero": np.zeros((4, 4)),
    "only_non_finite": np.array([np.nan, np.inf, -np.inf]),
    "empty": np.zeros(0),
}

ESTIMATORS = {
    "dynamic": lambda: _CountingEstimator(sigma=2),
    "calibrated": lambda: _calibrated(),
    "calibrated_unset": lambda: _CountingEstimator(mode="calibrated"),
    "disabled": lambda: _CountingEstimator(enabled=False),
}


class TestSingleMagnitudePass:
    """Each hook takes one ``log2|x|`` pass and shares it with scale and stats."""

    @pytest.mark.parametrize("mode", sorted(ESTIMATORS))
    @pytest.mark.parametrize("role", ["weight", "activation"])
    def test_forward_hooks_call_scale_for_once(self, rng, role, mode):
        scaler = ESTIMATORS[mode]()
        context = LayerQuantContext("layer", **{f"{role}_quantizer": PositQuantizer(CFG_FWD),
                                                f"{role}_scaler": scaler})
        hook = getattr(context, role)
        values = rng.standard_normal(50) * 1e-3
        out = hook(Tensor(values, requires_grad=True))
        assert scaler.calls == 1
        scale = ESTIMATORS[mode]().scale_for(values)
        np.testing.assert_array_equal(
            out.data, apply_scaled_quantization(values, PositQuantizer(CFG_FWD), scale))
        assert context.stats[role].last_scale == scale
        hook(Tensor(values))
        assert scaler.calls == 2

    def test_backward_hooks_call_scale_for_once(self, rng):
        error, weight_grad = _CountingEstimator(), _CountingEstimator()
        context = LayerQuantContext(
            "layer", error_quantizer=PositQuantizer(CFG_BWD),
            weight_grad_quantizer=PositQuantizer(CFG_BWD),
            error_scaler=error, weight_grad_scaler=weight_grad)
        x = Tensor(rng.standard_normal(20), requires_grad=True)
        context.error(x).backward(rng.standard_normal(20) * 1e-4)
        context.weight_grad(rng.standard_normal(20) * 1e-5)
        assert (error.calls, weight_grad.calls) == (1, 1)
        assert context.stats["error"].calls == context.stats["weight_grad"].calls == 1

    @pytest.mark.parametrize("name", sorted(AWKWARD_TENSORS))
    def test_record_with_logs_matches_record(self, name):
        from repro.core import RoleStats, log2_magnitudes

        values = AWKWARD_TENSORS[name]
        plain, shared = RoleStats(), RoleStats()
        for scale in (0.25, 4.0):
            plain.record(values, scale)
            shared.record(values, scale, log2_magnitudes(values))
        assert shared.as_dict() == plain.as_dict()

    @pytest.mark.parametrize("mode", sorted(ESTIMATORS))
    @pytest.mark.parametrize("name", sorted(AWKWARD_TENSORS))
    def test_scale_for_with_logs_matches_scale_for(self, name, mode):
        from repro.core import log2_magnitudes

        values = AWKWARD_TENSORS[name]
        estimator = ESTIMATORS[mode]()
        assert (estimator.scale_for(values, log2_magnitudes(values))
                == estimator.scale_for(values))

    @pytest.mark.parametrize("name", sorted(AWKWARD_TENSORS))
    def test_log2_magnitudes_keeps_finite_nonzero_only(self, name):
        from repro.core import log2_center, log2_magnitudes

        values = AWKWARD_TENSORS[name]
        logs = log2_magnitudes(values)
        mag = np.abs(values[np.isfinite(values) & (values != 0)])
        assert logs.dtype == np.float64
        np.testing.assert_array_equal(logs, np.log2(mag))
        assert log2_center(values) == (float(np.round(logs.mean())) if logs.size else 0.0)
