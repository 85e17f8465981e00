#!/usr/bin/env python3
"""Hardware evaluation report: posit MAC vs FP32 MAC (Tables IV and V, Figs. 4-6).

Regenerates, from the analytical synthesis model:

* Table IV — encoder/decoder delay for the original architecture of [6] vs
  the paper's optimized architecture, for posit(8,0), (16,1), (32,3);
* Table V  — power and area of the posit MAC units vs the FP32 MAC at 750 MHz;
* the Fig. 4 observation that the codec accounts for ~40 % of the original
  posit MAC delay, and how much the optimization recovers;
* the §V system-level claim that 8/16-bit posit saves 2-4x communication.

The model is calibrated on exactly one published reference point (the FP32
MAC row of Table V and the [6] posit(16,1) decoder delay); every other number
is a structural prediction; ``benchmarks/test_bench_table5_mac_power_area.py``
records the paper-vs-model comparison.

Run with:  python examples/hardware_report.py
"""

from __future__ import annotations

import numpy as np

from repro.api import build_policy
from repro.hardware import (
    FP32MAC,
    PositMAC,
    calibrate_to_reference,
    codec_optimization_report,
    communication_saving,
    table4_report,
    table5_report,
)
from repro.models import cifar_resnet18
from repro.formats import parse_format
from repro.posit import PositConfig, encode


def print_table(rows: list[dict], title: str) -> None:
    print("\n" + title)
    print("-" * len(title))
    if not rows:
        return
    headers = list(rows[0].keys())
    widths = [max(len(str(h)), max(len(str(r[h])) for r in rows)) for h in headers]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(row[h]).ljust(w) for h, w in zip(headers, widths)))


def functional_spot_check() -> None:
    print("Functional spot check: the posit(16,1) MAC against the software reference")
    cfg = PositConfig(16, 1)
    mac = PositMAC(cfg)
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(1000):
        a, b, c = rng.uniform(-50, 50, 3)
        bits = [encode(float(v), cfg) for v in (a, b, c)]
        from repro.posit import fma

        if mac.mac(*bits) != fma(*bits, cfg, rounding="zero"):
            mismatches += 1
    print(f"  1000 random MAC operations, {mismatches} mismatches vs the bit-exact reference\n")


def main() -> None:
    calibration = calibrate_to_reference()
    print("Calibration (fit on the FP32 MAC row of Table V and the [6] decoder delay):")
    print(f"  area x{calibration.area_scale:.3f}, power x{calibration.power_scale:.3f}, "
          f"delay x{calibration.delay_scale:.3f}\n")

    functional_spot_check()

    print_table(table4_report(calibration=calibration),
                "Table IV — encoder/decoder delay, original [6] vs optimized (ours)")
    print_table(table5_report(calibration=calibration),
                "Table V — MAC power and area at 750 MHz")
    print_table(codec_optimization_report(calibration=calibration),
                "Fig. 4-6 — codec share of the posit MAC critical path")

    print("\n§V — communication saving for ResNet-18 under the paper's policies")
    model = cifar_resnet18(base_width=16, rng=np.random.default_rng(0))
    for name, policy in (("Cifar policy (8-bit CONV / 16-bit BN)", build_policy("cifar_paper")),
                         ("ImageNet policy (16-bit everywhere)", build_policy("imagenet_paper"))):
        saving = communication_saving(model, policy, batch_size=32)
        print(f"  {name:<42} model size x{saving['model_size_ratio']:.2f}, "
              f"traffic x{saving['traffic_ratio']:.2f}, energy x{saving['energy_ratio']:.2f}")

    fp32_area = FP32MAC().cost().area_ge
    print("\nStructural gate counts (FP32 MAC = 1.0):")
    for cfg in map(parse_format, ("posit(8,1)", "posit(8,2)", "posit(16,1)", "posit(16,2)")):
        ratio = PositMAC(cfg).cost().area_ge / fp32_area
        print(f"  {cfg}: {ratio:.2f}")


if __name__ == "__main__":
    main()
