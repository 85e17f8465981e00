"""Tests of the benchmark itself: metric coverage, seeding, load-generator
limits, span self-time accounting, and the max-rate-at-SLO estimate.

The minimal-size runs call ``perfbench/run.py`` the way the benchmark is
run, with ``--seconds 1``; together they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, serve, train
from perfbench.common import OUT_DIR, SpanRecorder, nproc

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [workload["name"] for workload in SPEC["workloads"]]

_RUNS: dict = {}


def _run(workload: str, seed: int, trace: int) -> dict:
    """One minimal run; returns its final JSON line and its result file."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        detail = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
        _RUNS[key] = {"last": last, "detail": detail}
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_run_emits_every_declared_metric(workload, trace):
    result = _run(workload, 3, trace)["last"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if not trace and workload in LISTED:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_seed_changes_inputs_but_not_the_metric_set():
    assert not np.array_equal(serve.inputs(3, 16), serve.inputs(4, 16))
    np.testing.assert_array_equal(serve.inputs(3, 16), serve.inputs(3, 16))
    from repro.api import build_experiment

    first = next(iter(build_experiment(train.config(3)).train_loader))[0]
    second = next(iter(build_experiment(train.config(4)).train_loader))[0]
    assert not np.array_equal(first, second)
    assert (set(_run("train", 4, 0)["last"]["metrics"])
            == set(_run("train", 3, 0)["last"]["metrics"]))


@pytest.mark.parametrize("workload", [w for w in run.WORKLOADS if w.startswith("http")])
def test_http_generator_stays_within_nproc(workload):
    checks = _run(workload, 3, 0)["detail"]["checks"]
    assert 1 <= checks["clients"] <= nproc()
    assert checks["peak_in_flight"] <= nproc()


def test_open_loop_generator_is_one_thread():
    checks = _run("serve-open", 3, 0)["detail"]["checks"]
    assert checks["loadgen_threads"] == 1


def test_without_program_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Layer:
    def outer(self, x):
        time.sleep(0.002)
        return self.inner(x) + 1

    def inner(self, x):
        time.sleep(0.003)
        return x


def test_self_time_excludes_children_and_patches_are_restored():
    recorder = SpanRecorder()
    original_outer = _Layer.__dict__["outer"]
    with recorder.patched([(_Layer, "outer", "outer"), (_Layer, "inner", "inner", True)]):
        assert _Layer().outer(np.zeros(5)).sum() == 5
    assert _Layer.__dict__["outer"] is original_outer
    rows = {row[0]: row for row in recorder.self_times()}
    outer, inner = rows["outer"], rows["inner"]
    assert inner[4] == "outer" and inner[3] == 5
    assert outer[2] == pytest.approx(outer[1] - inner[1])
    assert outer[2] < outer[1]


def test_patching_an_inherited_attribute_deletes_it_again():
    class Child(_Layer):
        pass

    recorder = SpanRecorder()
    with recorder.patched([(Child, "inner", "inner")]):
        assert "inner" in Child.__dict__
    assert "inner" not in Child.__dict__


def _rung(rate, p90, clean=True):
    return {"rate": rate, "throughput": float(rate), "p90_windows": p90,
            "clean": clean, "ok": clean and p90 <= serve.SLO_MS}


def test_max_rate_interpolates_to_the_slo_crossing():
    rungs = [_rung(1000, 10.0), _rung(2000, 30.0), _rung(3000, 70.0)]
    assert serve.max_rate_at_slo(rungs) == pytest.approx(2500.0)


def test_max_rate_counts_no_share_of_a_rung_with_failures():
    rungs = [_rung(1000, 10.0), _rung(2000, 30.0), _rung(3000, 40.0, clean=False)]
    assert serve.max_rate_at_slo(rungs) == pytest.approx(2000.0)
    assert serve.max_rate_at_slo([_rung(1000, 80.0)]) == 0.0
    assert serve.max_rate_at_slo([_rung(1000, 10.0)]) == pytest.approx(1000.0)
