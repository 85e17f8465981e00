"""``train`` workload: quantized training steps on the paper's CIFAR recipe.

LeNet with BatchNorm on ``cifar_like`` 32x32x3 images, batch 32, preset
``cifar_paper`` (posit(8,1)/(8,2) conv and linear, posit(16,1)/(16,2)
BatchNorm), quantization on from the first step.  Steps run through
``PositTrainer.train_epoch``; a loader wrapper marks where each step starts
(the batch fetch) and ends (the trainer asking for the next batch).
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from .common import (
    CHUNKS,
    Phase,
    SpanRecorder,
    check,
    chunk_median,
    codec_metrics,
    codec_targets,
    codec_totals,
    core_targets,
    median,
    pct,
    self_ms,
    self_peak_rss_mb,
    total_ms,
)

BATCH = 32
TRAIN_SIZE = 1024
SETUP_REPS = 5


class StepClock:
    """Loader wrapper timing each step from its batch fetch to the next one."""

    def __init__(self, loader, recorder=None):
        self.loader = loader
        self.recorder = recorder
        self.deadline = float("inf")
        self.max_steps = None
        self.steps: list[float] = []
        self.samples = 0

    def _done(self) -> bool:
        return (time.perf_counter() >= self.deadline
                or (self.max_steps is not None and len(self.steps) >= self.max_steps))

    def __iter__(self):
        batches = iter(self.loader)
        while not self._done():
            start = time.perf_counter()
            try:
                if self.recorder is not None:
                    with self.recorder.span("data.next_batch"):
                        batch = next(batches)
                else:
                    batch = next(batches)
            except StopIteration:
                return
            yield batch
            self.steps.append(time.perf_counter() - start)
            self.samples += len(batch[1])


def config(seed: int):
    from repro.api import ExperimentConfig

    return ExperimentConfig(
        name="perfbench-train", dataset="cifar_like", model="lenet",
        policy="cifar_paper", epochs=1, batch_size=BATCH, warmup_epochs=0,
        train_size=TRAIN_SIZE, test_size=64, num_classes=10,
        seed=seed, data_seed=seed)


def _setup(cfg):
    """Fresh experiment through its first step, with every cache cold."""
    from repro.api import build_experiment, clear_dataset_cache
    from repro.formats import clear_quantizer_cache
    from repro.formats.kernels import clear_kernel_cache

    clear_dataset_cache()
    clear_quantizer_cache()
    clear_kernel_cache()
    start = time.perf_counter()
    experiment = build_experiment(cfg)
    clock = StepClock(experiment.train_loader)
    clock.max_steps = 1
    loss, _ = experiment.trainer.train_epoch(clock)
    elapsed = time.perf_counter() - start
    check(np.isfinite(loss), f"setup step loss is not finite: {loss}")
    return experiment, elapsed


def _train_for(experiment, seconds: float, recorder=None):
    """Run steps until ``seconds`` pass; returns (clock, epoch losses, wall)."""
    clock = StepClock(experiment.train_loader, recorder)
    start = time.perf_counter()
    clock.deadline = start + seconds
    losses = []
    while not clock._done():
        before = len(clock.steps)
        loss, _ = experiment.trainer.train_epoch(clock)
        if len(clock.steps) > before:
            losses.append(loss)
    return clock, losses, time.perf_counter() - start


def _verify_grid(experiment) -> int:
    """One more step; every updated weight must sit on its format grid.

    ``LayerQuantContext.param`` is wrapped to capture the scale it used,
    so the check is exact: ``quantize(w / s) * s == w`` bit for bit.
    """
    from repro.core.transform import LayerQuantContext

    captured = []
    original = LayerQuantContext.param

    def capture(context, data, param=None):
        out = original(context, data, param)
        scaler = context.scalers["weight"]
        if context.enabled and context.quantizers["weight"] is not None:
            scale = scaler.scale_for(data) if scaler is not None else 1.0
            captured.append((context, param, scale, out))
        return out

    LayerQuantContext.param = capture
    try:
        clock = StepClock(experiment.train_loader)
        clock.max_steps = 1
        loss, _ = experiment.trainer.train_epoch(clock)
    finally:
        LayerQuantContext.param = original
    check(np.isfinite(loss), f"verification step loss is not finite: {loss}")
    check(len(captured) > 0, "no weight went through the post-update quantize hook")
    for context, param, scale, out in captured:
        check(np.array_equal(param.data, out),
              f"{context.name}: stored weight differs from the quantized update")
        again = context.quantizers["weight"](out / scale) * scale
        check(np.array_equal(again, out),
              f"{context.name}: weight is off its format grid")
    return len(captured)


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.tensor import Tensor

    cfg = config(seed)
    recorder = SpanRecorder() if trace else None
    setup = Phase("setup")
    setup_times = []
    with (recorder.patched(codec_targets()) if trace else contextlib.nullcontext()):
        for _ in range(SETUP_REPS):
            experiment = None  # one experiment alive at a time, as for a user
            experiment, elapsed = _setup(cfg)
            setup_times.append(elapsed)
            setup.record("succeeded")

    steps = Phase("steps")
    warmup, _, _ = _train_for(experiment, 0.1 * seconds)  # untimed
    for _ in warmup.steps:
        steps.record("succeeded")
    metrics: dict = {}
    if not trace:
        chunks = []
        for _ in range(CHUNKS):
            clock, losses, wall = _train_for(experiment, seconds / CHUNKS)
            for _ in clock.steps:
                steps.record("succeeded")
            check(all(np.isfinite(losses)), f"non-finite training loss: {losses}")
            step_ms = [s * 1e3 for s in clock.steps]
            chunks.append({"samples_per_s": clock.samples / wall,
                           "p50": pct(step_ms, 50), "p90": pct(step_ms, 90)})
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "samples_per_s": (chunk_median(chunks, "samples_per_s"), "1/s"),
            "latency_ms.p50": (chunk_median(chunks, "p50"), "ms"),
            "latency_ms.p90": (chunk_median(chunks, "p90"), "ms"),
        }
    else:
        # Untraced reference first, then the traced phase it is compared to.
        plain, _, plain_wall = _train_for(experiment, seconds / 3)
        model_cls = type(experiment.model)
        targets = codec_targets() + core_targets() + [
            (model_cls, "__call__", "nn.forward"),
            (Tensor, "backward", "tensor.backward"),
            (type(experiment.optimizer), "step", "optim.step"),
        ]
        with recorder.patched(targets):
            clock, losses, wall = _train_for(experiment, 2 * seconds / 3, recorder)
        for _ in plain.steps + clock.steps:
            steps.record("succeeded")
        check(all(np.isfinite(losses)), f"non-finite training loss: {losses}")
        rows = recorder.self_times()
        n = max(len(clock.steps), 1)
        plain_rate = plain.samples / plain_wall
        traced_rate = clock.samples / wall
        metrics = {
            "data.next_batch_ms": (total_ms(rows, "data.next_batch") / n, "ms"),
            "nn.forward_ms": (self_ms(rows, "nn.forward") / n, "ms"),
            "tensor.backward_ms": (self_ms(rows, "tensor.backward") / n, "ms"),
            "core.quant_hooks_ms": (self_ms(rows, "core.quant_hooks") / n, "ms"),
            "core.scale_ms": (self_ms(rows, "core.scale") / n, "ms"),
            "core.record_ms": (self_ms(rows, "core.record") / n, "ms"),
            "optim.step_ms": (total_ms(rows, "optim.step") / n, "ms"),
            "obs.tracing_overhead_share": (plain_rate / traced_rate - 1.0, "share"),
        }
        metrics.update(codec_metrics(codec_totals(rows),
                                     total_ms(rows, "formats.kernel_build") / SETUP_REPS))

    grid_checked = _verify_grid(experiment)
    steps.record("succeeded")
    return {"metrics": metrics, "phases": [setup.as_dict(), steps.as_dict()],
            "checks": {"weights_on_grid": grid_checked, "loss_finite": True},
            "recorder": recorder}
