"""Benchmark / regeneration of Table V: posit MAC vs FP32 MAC power and area.

The paper reports, at a 750 MHz timing constraint under TSMC 28 nm:

====================  =========  ===========
design                power(mW)  area (µm²)
FP32                  2.52       4322
posit(8,1)            0.45       1208
posit(8,2)            0.35       1032
posit(16,1)           1.77       4079
posit(16,2)           1.60       3897
====================  =========  ===========

i.e. power reduced by 22-83 % and area by 6-76 %.  The analytical model is
calibrated only on the FP32 row; the acceptance criterion is the paper's own
claim band — every posit MAC is cheaper than FP32, the 8-bit units by a large
factor, the 16-bit units by a modest one — rather than the absolute numbers.
"""

import numpy as np

from repro.hardware import FP32MAC, PositMAC, table5_report
from repro.posit import PositConfig, encode

#: The paper's Table V, for the paper-vs-model side-by-side in the results.
PAPER_TABLE5 = {
    "FP32": {"power_mw": 2.52, "area_um2": 4322},
    "posit(8,1)": {"power_mw": 0.45, "area_um2": 1208},
    "posit(8,2)": {"power_mw": 0.35, "area_um2": 1032},
    "posit(16,1)": {"power_mw": 1.77, "area_um2": 4079},
    "posit(16,2)": {"power_mw": 1.60, "area_um2": 3897},
}


def test_bench_table5_mac_power_area(benchmark, save_result):
    """Regenerate Table V and check the reduction bands of the paper's claim."""
    rows = benchmark.pedantic(table5_report, rounds=3, iterations=1)
    payload = {"model": rows, "paper": PAPER_TABLE5}
    save_result("table5_mac_power_area", payload)

    by_design = {row["design"]: row for row in rows}
    fp32 = by_design["FP32"]
    # Calibration target is exact.
    assert abs(fp32["power_mw"] - 2.52) < 1e-6
    assert abs(fp32["area_um2"] - 4322.0) < 1e-3

    # The paper's claim: power reduced by 22-83 %, area by 6-76 %.
    for design in ("posit(8,1)", "posit(8,2)", "posit(16,1)", "posit(16,2)"):
        row = by_design[design]
        assert 15.0 <= row["power_reduction_percent"] <= 90.0, row
        assert 5.0 <= row["area_reduction_percent"] <= 90.0, row

    # Ordering within the table: 8-bit units are cheaper than 16-bit units,
    # and es=2 is slightly cheaper than es=1 at the same width.
    assert by_design["posit(8,1)"]["area_um2"] < by_design["posit(16,1)"]["area_um2"]
    assert by_design["posit(8,2)"]["area_um2"] < by_design["posit(8,1)"]["area_um2"]
    assert by_design["posit(16,2)"]["area_um2"] < by_design["posit(16,1)"]["area_um2"]


def test_bench_posit_mac_functional_throughput(benchmark, bench_rng):
    """Throughput of the functional posit(16,1) MAC model (used in verification)."""
    cfg = PositConfig(16, 1)
    mac = PositMAC(cfg)
    operands = [tuple(encode(float(v), cfg) for v in bench_rng.uniform(-10, 10, 3))
                for _ in range(200)]

    def run_macs():
        return [mac.mac(a, b, c) for a, b, c in operands]

    results = benchmark(run_macs)
    assert len(results) == 200


def test_bench_fp32_mac_functional(benchmark, bench_rng):
    """The FP32 MAC functional model, for comparison."""
    mac = FP32MAC()
    operands = bench_rng.uniform(-10, 10, (200, 3))

    def run_macs():
        return [mac.mac(a, b, c) for a, b, c in operands]

    results = benchmark(run_macs)
    assert np.all(np.isfinite(results))
