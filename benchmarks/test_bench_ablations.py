"""Ablation benchmarks for the design choices of §III-B.

The paper proposes three stabilizing techniques (warm-up training,
distribution-based shifting, per-role es selection) and a hardware-friendly
rounding mode.  These ablations quantify each choice on a small synthetic
task, providing the evidence table for each of them:

* warm-up on/off,
* shifting on/off and a sigma sweep,
* es assignment (paper's 1-forward/2-backward vs uniform 0 and uniform 2),
* rounding mode (round-to-zero vs round-to-nearest vs stochastic).

Each configuration is a short training run; the outputs land in
benchmarks/results/ablations.json.
"""

import numpy as np
import pytest

from repro.analysis import sqnr_db
from repro.core import (
    PositTrainer,
    QuantizationPolicy,
    WarmupSchedule,
    compute_scale_factor,
)
from repro.data import SyntheticImageDataset, train_loader
from repro.data.loaders import test_loader as make_test_loader
from repro.models import tiny_resnet
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.posit import PositConfig, quantize

EPOCHS = 3


def run_configuration(policy, warmup_epochs, seed=0):
    dataset = SyntheticImageDataset(num_classes=4, num_train=160, num_test=96,
                                    image_size=16, noise_std=0.4,
                                    prototype_smoothness=4, max_shift=1, seed=1)
    train = train_loader(dataset, batch_size=32, seed=seed)
    val = make_test_loader(dataset, batch_size=96)
    model = tiny_resnet(num_classes=4, base_width=8, rng=np.random.default_rng(seed))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    trainer = PositTrainer(model, optimizer, CrossEntropyLoss(), policy=policy,
                           warmup=WarmupSchedule(warmup_epochs))
    history = trainer.fit(train, val, epochs=EPOCHS)
    return history.final_val_accuracy


@pytest.mark.slow
def test_bench_ablation_warmup_and_shifting(benchmark, save_result):
    """Warm-up and shifting ablations under an aggressive 8-bit format."""
    results = {}

    def run_all():
        base = dict(es_forward=1, es_backward=2)
        results["full_recipe"] = run_configuration(
            QuantizationPolicy.uniform(8, **base), warmup_epochs=1)
        results["no_warmup"] = run_configuration(
            QuantizationPolicy.uniform(8, **base), warmup_epochs=0)
        results["no_shifting"] = run_configuration(
            QuantizationPolicy.uniform(8, use_scaling=False, **base), warmup_epochs=1)
        results["no_warmup_no_shifting"] = run_configuration(
            QuantizationPolicy.uniform(8, use_scaling=False, **base), warmup_epochs=0)
        results["fp32_reference"] = run_configuration(None, 0)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_result("ablation_warmup_shifting", results)

    # The full recipe should not be worse than stripping both techniques.
    assert results["full_recipe"] >= results["no_warmup_no_shifting"] - 0.05
    # And it should be in the neighbourhood of the FP32 reference.
    assert results["full_recipe"] >= results["fp32_reference"] - 0.2


@pytest.mark.slow
def test_bench_ablation_es_assignment(benchmark, save_result):
    """The §III-B es criterion: es=1 forward / es=2 backward vs uniform choices."""
    results = {}

    def run_all():
        results["paper_es_1_2"] = run_configuration(
            QuantizationPolicy.uniform(8, es_forward=1, es_backward=2), warmup_epochs=1)
        results["uniform_es_0"] = run_configuration(
            QuantizationPolicy.uniform(8, es_forward=0, es_backward=0), warmup_epochs=1)
        results["uniform_es_2"] = run_configuration(
            QuantizationPolicy.uniform(8, es_forward=2, es_backward=2), warmup_epochs=1)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_result("ablation_es_assignment", results)
    best = max(results.values())
    # The paper's assignment should be competitive with the best uniform choice.
    assert results["paper_es_1_2"] >= best - 0.15


def test_bench_ablation_sigma_sweep(benchmark, save_result, bench_rng):
    """Sweep the sigma constant of Eq. (2) on a static quantization-error study."""
    weights = bench_rng.standard_normal(20000) * 0.004
    gradients = bench_rng.standard_normal(20000) * 2e-5
    config = PositConfig(8, 1)

    def sweep():
        rows = []
        for sigma in range(0, 5):
            row = {"sigma": sigma}
            for label, tensor in (("weights", weights), ("gradients", gradients)):
                scale = compute_scale_factor(tensor, sigma=sigma)
                quantized = np.asarray(quantize(tensor / scale, config)) * scale
                row[f"sqnr_{label}_db"] = sqnr_db(tensor, quantized)
            rows.append(row)
        return rows

    rows = benchmark(sweep)
    save_result("ablation_sigma_sweep", rows)
    no_shift = sqnr_db(weights, np.asarray(quantize(weights, config)))
    # Every sigma in the sweep beats not shifting at all; sigma=2 (the paper's
    # choice) is within a small margin of the best.
    best = max(row["sqnr_weights_db"] for row in rows)
    sigma2 = next(row for row in rows if row["sigma"] == 2)
    assert all(row["sqnr_weights_db"] > no_shift for row in rows)
    assert sigma2["sqnr_weights_db"] >= best - 6.0


def test_bench_ablation_rounding_modes(benchmark, save_result, bench_rng):
    """Round-to-zero (Algorithm 1) vs round-to-nearest vs stochastic rounding."""
    values = bench_rng.standard_normal(50000) * 0.01
    config = PositConfig(8, 1)
    scale = compute_scale_factor(values)

    def sweep():
        rows = []
        for mode in ("zero", "nearest", "stochastic"):
            rng = np.random.default_rng(0)
            quantized = np.asarray(quantize(values / scale, config, rounding=mode, rng=rng)) * scale
            rows.append({
                "rounding": mode,
                "sqnr_db": sqnr_db(values, quantized),
                "mean_bias": float(np.mean(quantized - values)),
            })
        return rows

    rows = benchmark(sweep)
    save_result("ablation_rounding_modes", rows)
    by_mode = {row["rounding"]: row for row in rows}
    # Nearest rounding is the most accurate; round-to-zero (the paper's
    # hardware-friendly choice) gives up a few dB; stochastic sits in between
    # but is unbiased.
    assert by_mode["nearest"]["sqnr_db"] >= by_mode["zero"]["sqnr_db"]
    assert abs(by_mode["stochastic"]["mean_bias"]) <= abs(by_mode["zero"]["mean_bias"]) + 1e-6
