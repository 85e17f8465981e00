"""Tests for the per-worker BLAS thread budget (:mod:`repro.serve.blas`).

The budget arithmetic is pure and tested on tables; the ctypes path is
exercised against whatever BLAS NumPy loaded here and skipped when that
library exposes no run-time thread setter.  The cluster-level checks (each
worker's ``/stats`` reporting the budget, re-application after a scale
move) live in ``test_cluster.py``.
"""

import os

import pytest

from repro.serve import blas
from repro.serve.blas import (
    BLAS_ENV_VARS,
    blas_env,
    blas_info,
    blas_pinnable,
    set_blas_threads,
    usable_cores,
    worker_budget,
)

needs_blas = pytest.mark.skipif(
    not blas_pinnable(),
    reason="no BLAS with a run-time thread setter is loaded")


@pytest.mark.parametrize("cores, workers, threads", [
    (1, 1, 1),    # one core, one worker
    (1, 2, 1),    # one core: never below one thread
    (2, 1, 2),    # a lone worker keeps every core
    (2, 2, 1),    # the http-single shape
    (2, 3, 1),    # more workers than cores
    (4, 8, 1),
    (8, 3, 2),    # remainders are left idle, never oversubscribed
    (16, 4, 4),
])
def test_worker_budget_table(cores, workers, threads):
    assert worker_budget(workers, cores) == threads
    assert workers * worker_budget(workers, cores) <= max(cores, workers)


def test_worker_budget_clamps_worker_count():
    assert worker_budget(0, 4) == 4


def test_budget_follows_affinity_not_cpu_count(monkeypatch):
    # A container pinned to 1 of 8 host cores must budget for 1 core.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cores() == 1
    assert worker_budget(2) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cores() == 4
    assert worker_budget(2) == 2


def test_usable_cores_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cores() == 3


def test_blas_env_sets_and_restores(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with blas_env(2):
        assert all(os.environ[name] == "2" for name in BLAS_ENV_VARS)
    assert os.environ["OMP_NUM_THREADS"] == "7"
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_unpinnable_blas_reports_not_pinned(monkeypatch):
    monkeypatch.setattr(blas, "_library", None)
    assert blas_pinnable() is False
    assert set_blas_threads(1) is False
    assert blas_info() == {"library": None, "threads": None, "pinned": False}


@needs_blas
def test_set_blas_threads_round_trip():
    before = blas_info()["threads"]
    try:
        assert set_blas_threads(1) is True
        info = blas_info()
        assert info["threads"] == 1
        assert info["pinned"] is True
        assert info["library"]
    finally:
        set_blas_threads(before)
    assert blas_info()["threads"] == before
