"""Tests for the multi-worker serving tier (:mod:`repro.serve.cluster`).

Covers the supervisor's contract end to end: worker startup handshakes
(including the guardrail refusal path), round-robin + least-outstanding
dispatch, cross-worker bit-identity, aggregated stats, crash detection +
restart with transparent failover, clean drain on shutdown, and the HTTP
listener over the cluster.
"""

import os
import signal
import time

import numpy as np
import pytest
from artifact_tools import rewrite_manifest

from repro.api import ExperimentConfig
from repro.serve import (
    BatchingConfig,
    ClusterConfig,
    ClusterError,
    ClusterServer,
    GuardrailError,
    HTTPClient,
    InferenceEngine,
    ServeClientError,
    ServeCluster,
    run_load,
    train_and_export,
)
from repro.serve.blas import blas_pinnable, worker_budget

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def small_config(**overrides) -> ExperimentConfig:
    base = dict(name="cluster_test", dataset="blobs", model="mlp",
                policy="posit(8,1)", epochs=1, train_size=64, test_size=32,
                batch_size=16, num_classes=3, model_kwargs={"hidden": [16]})
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "model.rpak"
    train_and_export(small_config(), path)
    return str(path)


@pytest.fixture
def cluster(artifact):
    with ServeCluster(artifact, ClusterConfig(workers=2),
                      batching=BatchingConfig(max_batch=16,
                                              max_wait_ms=2.0)) as running:
        yield running


@pytest.fixture
def samples():
    return np.random.default_rng(7).normal(size=(16, 2))


def wait_until(predicate, timeout_s: float = 30.0, interval_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


# --------------------------------------------------------------------- #
# Lifecycle + dispatch
# --------------------------------------------------------------------- #
class TestClusterBasics:
    def test_start_brings_up_every_worker(self, cluster):
        health = cluster.healthz()
        assert health["status"] == "ok"
        assert health["alive"] == health["workers"] == 2
        assert health["guardrail"] == ["passed", "passed"]

    def test_predict_matches_in_process_engine(self, cluster, artifact,
                                               samples):
        engine = InferenceEngine(artifact)
        direct = engine.predict_batch(samples)
        payload = cluster.predict(list(samples))
        assert np.array_equal(np.asarray(payload["logits"]), direct)
        assert payload["predictions"] == [int(np.argmax(row))
                                          for row in direct]
        assert payload["worker"] in (0, 1)

    def test_bit_identity_across_workers(self, cluster, samples):
        """Same inputs, every worker, batched and single: one answer."""
        batched0 = np.asarray(cluster.predict_on(0, list(samples))["logits"])
        batched1 = np.asarray(cluster.predict_on(1, list(samples))["logits"])
        assert np.array_equal(batched0, batched1)
        singles = np.stack([
            np.asarray(cluster.predict_on(1, [sample])["logits"][0])
            for sample in samples])
        assert np.array_equal(batched0, singles)

    def test_control_snapshot_sees_no_backlog_for_sequential_requests(
            self, cluster, samples):
        # Sequential one-sample requests on both workers never queue behind
        # a forward pass, so the controller has no reason for a wait.
        for sample in samples[:6]:
            cluster.predict([sample])
        assert cluster.control_snapshot()["backlog"] == 0.0

    def test_round_robin_spreads_load(self, cluster, samples):
        for index in range(10):
            cluster.predict([samples[index % len(samples)]])
        stats = cluster.stats()
        assert sum(stats["dispatched"]) >= 10
        assert all(count > 0 for count in stats["dispatched"])

    def test_concurrent_load_hits_every_worker(self, cluster, samples):
        report = run_load(cluster, samples, concurrency=32,
                          requests_per_client=4)
        assert report["failed"] == 0, report["errors"]
        assert report["completed"] == 128
        assert set(report["served_by"]) == {0, 1}

    def test_stats_aggregate_across_workers(self, cluster, samples):
        run_load(cluster, samples, concurrency=16, requests_per_client=2)
        stats = cluster.stats()
        assert stats["alive"] == 2
        assert len(stats["per_worker"]) == 2
        assert stats["requests"] == sum(row["requests"]
                                        for row in stats["per_worker"])
        assert stats["requests"] >= 32
        assert stats["energy_uj_total"] > 0

    def test_malformed_sample_fails_only_its_request(self, cluster, samples):
        with pytest.raises(ValueError, match="input shape"):
            cluster.predict([np.zeros(5)])
        # The cluster is still healthy and serving afterwards.
        payload = cluster.predict([samples[0]])
        assert len(payload["logits"]) == 1

    def test_predict_after_stop_raises(self, artifact, samples):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2))
        cluster.start()
        cluster.predict([samples[0]])
        cluster.stop()
        with pytest.raises(ClusterError, match="not running"):
            cluster.predict([samples[0]])

    def test_stop_is_idempotent(self, artifact):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2)).start()
        cluster.stop()
        cluster.stop()


# --------------------------------------------------------------------- #
# Crash detection, restart, failover
# --------------------------------------------------------------------- #
class TestClusterSupervision:
    def test_killed_worker_is_restarted(self, artifact, samples):
        with ServeCluster(artifact, ClusterConfig(workers=2)) as cluster:
            victim_pid = cluster._handles[0].pid
            os.kill(victim_pid, signal.SIGKILL)
            assert wait_until(lambda: (cluster.healthz()["alive"] == 2
                                       and cluster.stats()["restarts"] >= 1))
            # The restarted worker re-ran the guardrail and serves again.
            assert cluster.healthz()["guardrail"] == ["passed", "passed"]
            payload = cluster.predict_on(0, [samples[0]])
            assert payload["worker"] == 0

    def test_kill_mid_load_is_invisible_to_clients(self, artifact, samples):
        """SIGKILL one worker under concurrent load: zero failed requests
        (in-flight requests fail over to the survivor) and the worker
        rejoins the rotation."""
        with ServeCluster(artifact, ClusterConfig(workers=2),
                          batching=BatchingConfig(max_batch=16,
                                                  max_wait_ms=2.0)) as cluster:
            import threading

            def assassin():
                time.sleep(0.05)
                os.kill(cluster._handles[0].pid, signal.SIGKILL)

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            report = run_load(cluster, samples, concurrency=32,
                              requests_per_client=16)
            killer.join()
            assert report["failed"] == 0, report["errors"]
            assert report["completed"] == 512
            # The kill may land anywhere relative to the load's tail, so
            # wait for the whole supervision cycle: death seen, worker
            # respawned, guardrail re-passed, back in rotation.
            assert wait_until(lambda: (cluster.stats()["restarts"] >= 1
                                       and cluster.healthz()["alive"] == 2))

    def test_restart_budget_is_finite(self, artifact):
        """A worker that keeps dying is given up on after max_restarts."""
        with ServeCluster(artifact,
                          ClusterConfig(workers=2, max_restarts=1)) as cluster:
            for _round in range(2):
                pid = None
                for handle in cluster._handles:
                    if handle.index == 0 and handle.state == "ready":
                        pid = handle.pid
                if pid is None:
                    break
                os.kill(pid, signal.SIGKILL)
                wait_until(lambda: cluster._handles[0].pid != pid
                           and cluster._handles[0].state == "ready",
                           timeout_s=10.0)
            assert wait_until(lambda: cluster.stats()["restarts"] == 1,
                              timeout_s=10.0)
            # Worker 1 still serves; the cluster reports degradation.
            assert wait_until(
                lambda: cluster.healthz()["status"] == "degraded")
            assert cluster.predict([np.zeros(2)])["worker"] == 1


# --------------------------------------------------------------------- #
# Guardrail refusal at cluster scale
# --------------------------------------------------------------------- #
class TestClusterGuardrail:
    def test_every_worker_refuses_corrupted_artifact(self, artifact,
                                                     tmp_path):
        def corrupt(manifest):
            manifest["guardrail"]["logits"][0][0] += 1.0

        bad = rewrite_manifest(artifact, str(tmp_path / "bad.rpak"), corrupt)
        cluster = ServeCluster(bad, ClusterConfig(workers=2))
        with pytest.raises(GuardrailError, match="every worker refused"):
            cluster.start()
        # No stray processes linger after the refused start.
        assert all(handle.process is None or not handle.process.is_alive()
                   for handle in cluster._handles)

    def test_missing_artifact_raises_cluster_error(self, tmp_path):
        cluster = ServeCluster(str(tmp_path / "nope.rpak"),
                               ClusterConfig(workers=2, start_timeout_s=30))
        with pytest.raises(ClusterError, match="no worker"):
            cluster.start()


# --------------------------------------------------------------------- #
# HTTP listener over the cluster
# --------------------------------------------------------------------- #
class TestClusterHTTP:
    @pytest.fixture
    def server(self, artifact):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2),
                               batching=BatchingConfig(max_batch=16,
                                                       max_wait_ms=2.0))
        with ClusterServer(cluster) as running:
            yield running

    def test_healthz_reports_cluster_state(self, server):
        health = HTTPClient(server.url).healthz()
        assert health["status"] == "ok"
        assert health["alive"] == 2
        assert health["guardrail"] == ["passed", "passed"]

    def test_predict_parity_with_engine(self, server, artifact, samples):
        client = HTTPClient(server.url)
        response = client.predict(samples[:5])
        direct = InferenceEngine(artifact).predict_batch(samples[:5])
        assert np.array_equal(np.asarray(response["logits"]), direct)
        assert response["worker"] in (0, 1)

    def test_stats_are_aggregated(self, server, samples):
        client = HTTPClient(server.url)
        client.predict(samples[:4])
        stats = client.stats()
        assert stats["workers"] == 2
        assert len(stats["per_worker"]) == 2

    def test_http_load_spreads_over_workers(self, server, samples):
        report = run_load(HTTPClient(server.url), samples, concurrency=32,
                          requests_per_client=2,
                          client_factory=lambda: HTTPClient(server.url))
        assert report["failed"] == 0, report["errors"]
        assert set(report["served_by"]) == {0, 1}

    def test_bad_request_is_400(self, server):
        with pytest.raises(ServeClientError) as excinfo:
            HTTPClient(server.url).predict([np.zeros(9)])
        assert excinfo.value.status == 400

    def test_non_finite_inputs_are_400_on_every_worker(self, server):
        # The HTTP client writes NaN/Infinity tokens; the worker that
        # admits the sample refuses it, and the refusal crosses the pipe
        # as a 400.  Six requests round-robin over both workers.
        client = HTTPClient(server.url)
        for bad in (np.nan, np.inf, -np.inf) * 2:
            with pytest.raises(ServeClientError) as excinfo:
                client.predict([np.zeros(2), np.array([bad, 1.0])])
            assert excinfo.value.status == 400
            assert "non-finite" in excinfo.value.message
        assert all(count >= 2 for count in client.stats()["dispatched"])
        assert client.predict([np.zeros(2)])["predictions"]


# --------------------------------------------------------------------- #
# Per-worker BLAS thread budget
# --------------------------------------------------------------------- #
@pytest.mark.skipif(not blas_pinnable(),
                    reason="no BLAS with a run-time thread setter is loaded")
class TestClusterBlasBudget:
    @staticmethod
    def worker_threads(stats: dict) -> list:
        return [row["blas"]["threads"] for row in stats["per_worker"]]

    def test_workers_run_the_budget_and_rebalance_on_scale(self, artifact,
                                                           samples):
        direct = InferenceEngine(artifact).predict_batch(samples[:8])
        cluster = ServeCluster(artifact, ClusterConfig(workers=2))
        with ClusterServer(cluster) as server:
            client = HTTPClient(server.url)
            budget = worker_budget(2)
            stats = client.stats()
            assert stats["blas_budget"] == budget
            assert self.worker_threads(stats) == [budget, budget]
            assert all(row["blas"]["pinned"] for row in stats["per_worker"])

            assert cluster.scale_to(1) == -1
            assert cluster.blas_budget == worker_budget(1)
            assert wait_until(lambda: self.worker_threads(client.stats())
                              == [worker_budget(1)], timeout_s=10.0)
            # Resizing the pool between batches leaves logits bit-identical.
            served = client.predict(list(samples[:8]))
            assert np.array_equal(np.asarray(served["logits"]), direct)

            # Growing shrinks the survivor to the new share (on a 2-core
            # host, more workers than cores: everyone at the 1-thread floor).
            assert cluster.scale_to(3) == 2
            assert wait_until(lambda: self.worker_threads(client.stats())
                              == [worker_budget(3)] * 3, timeout_s=30.0)
