"""Benchmark / regeneration of Fig. 2: CONV vs BN weight distributions.

Fig. 2 shows that during training the first CONV layer's weight distribution
stays essentially fixed while BN weight distributions change sharply over the
first epochs (a consequence of the all-ones BN initialization).  That is the
paper's justification for the FP32 warm-up phase.

The benchmark trains a small Cifar-stem ResNet in FP32 for a few epochs,
records both distributions every epoch, and asserts the qualitative shape:
the BN shift dominates the CONV shift.  Histogram summaries are saved to
benchmarks/results.
"""

import numpy as np
import pytest

from repro.analysis import DistributionRecorder, bn_shift_magnitude
from repro.core import PositTrainer
from repro.data import cifar_like, train_loader
from repro.models import ResNet
from repro.nn import CrossEntropyLoss
from repro.optim import SGD


@pytest.mark.slow
def test_bench_fig2_conv_vs_bn_distributions(benchmark, save_result):
    recorder = DistributionRecorder(keep_histograms=True, bins=30)

    def train_and_record():
        dataset = cifar_like(num_train=192, num_test=64, noise_std=0.5, seed=1)
        train = train_loader(dataset, batch_size=32, seed=0)
        model = ResNet(stage_blocks=(1, 1), num_classes=10, base_width=8, stem="cifar",
                       rng=np.random.default_rng(0))
        trainer = PositTrainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9),
                               CrossEntropyLoss(), epoch_callbacks=[recorder])
        recorder.record_model(model, epoch=-1)
        trainer.fit(train, epochs=3)
        return trainer

    benchmark.pedantic(train_and_record, rounds=1, iterations=1)

    report = recorder.report()
    shifts = bn_shift_magnitude(recorder)
    conv_name = next(name for name in shifts if "conv1" in name)
    bn_name = next(name for name in shifts if "bn1" in name)

    save_result("fig2_distributions", {
        "per_parameter": report,
        "shift_magnitudes": shifts,
        "epoch_stds": {name: snap.stds for name, snap in recorder.snapshots.items()},
        "epoch_means": {name: snap.means for name, snap in recorder.snapshots.items()},
    })

    # The Fig. 2 observation: the BN distribution moves much more than the CONV one.
    assert shifts[bn_name] > shifts[conv_name]
    # And the conv distribution stays close to its initialization shape.
    conv_snapshot = recorder.snapshots[conv_name]
    assert abs(conv_snapshot.stds[-1] - conv_snapshot.stds[0]) / conv_snapshot.stds[0] < 0.5
