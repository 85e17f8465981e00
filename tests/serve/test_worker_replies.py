"""The cluster worker's reply path, driven over a real pipe.

A worker's pipe reader submits every ``predict`` straight into its engine;
the reply leaves from a done-callback on the batcher thread when the
request's last sample resolves.  These tests run the worker body
(:func:`repro.serve.cluster._worker_main`) on a thread of the test process
against one end of a :func:`multiprocessing.Pipe`, read every message it
sends until it closes the pipe, and pin the contract: exactly one reply per
request, rows in request order and bit-identical to ``predict_batch``,
typed admission errors, worker spans on traced requests, and a shutdown
that drains and answers everything already sent.  The cluster-level tests
then check the same contract through the supervisor and its HTTP listener.
"""

import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.api import ExperimentConfig
from repro.obs import TraceConfig
from repro.serve import (
    BatchingConfig,
    ClusterConfig,
    ClusterServer,
    HTTPClient,
    InferenceEngine,
    ServeClientError,
    ServeCluster,
    train_and_export,
)
from repro.serve.cluster import _worker_main

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("worker_replies") / "model.rpak"
    config = ExperimentConfig(
        name="worker_replies", dataset="blobs", model="mlp",
        policy="posit(8,1)", epochs=1, train_size=64, test_size=32,
        batch_size=16, num_classes=3, model_kwargs={"hidden": [16]})
    train_and_export(config, path)
    return str(path)


@pytest.fixture(scope="module")
def reference(artifact):
    return InferenceEngine(artifact)


@pytest.fixture
def samples():
    return np.random.default_rng(23).normal(size=(64, 2))


class WorkerOnThread:
    """``_worker_main`` on a thread, spoken to through a duplex pipe."""

    def __init__(self, artifact: str, batching: dict = None,
                 tracing: TraceConfig = None):
        self.conn, child = mp.Pipe(duplex=True)
        self.received: list = []
        self.thread = threading.Thread(
            target=_worker_main,
            args=(0, artifact, batching, True, True, child,
                  tracing.to_dict() if tracing else None),
            daemon=True)
        self.thread.start()
        handshake = self.conn.recv()
        assert handshake["kind"] == "ready", handshake

    def send(self, message: dict) -> None:
        self.conn.send(message)

    def recv_until(self, request_id: int) -> None:
        """Read (and keep) messages until the reply to ``request_id``."""
        while not any(m["id"] == request_id for m in self.received):
            self.received.append(self.conn.recv())

    def shutdown(self) -> list:
        """Ask the worker to stop; return every message it sent until EOF."""
        self.conn.send({"kind": "shutdown"})
        messages = self.received
        while True:
            try:
                messages.append(self.conn.recv())
            except EOFError:
                break
        self.thread.join(timeout=15.0)
        assert not self.thread.is_alive(), "worker did not exit"
        self.conn.close()
        return messages


def by_id(messages: list) -> dict:
    """Replies keyed by request id, asserting each id replied exactly once."""
    messages = list(messages)
    ids = [message["id"] for message in messages]
    assert len(ids) == len(set(ids)), f"duplicate replies: {sorted(ids)}"
    return {message["id"]: message for message in messages}


class TestWorkerReplyPath:
    def test_each_request_gets_one_reply_with_rows_in_order(
            self, artifact, reference, samples):
        worker = WorkerOnThread(artifact)
        sizes = {1: 40, 2: 1, 3: 7, 4: 64}
        for request_id, size in sizes.items():
            worker.send({"kind": "predict", "id": request_id,
                         "samples": list(samples[:size])})
        replies = by_id(worker.shutdown())
        assert set(replies) == set(sizes)
        direct = reference.predict_batch(samples)
        for request_id, size in sizes.items():
            reply = replies[request_id]
            assert reply["ok"], reply
            logits = np.asarray(reply["result"]["logits"])
            assert np.array_equal(logits, direct[:size])
            assert reply["result"]["predictions"] == (
                direct[:size].argmax(axis=1).tolist())
            assert reply["result"]["worker"] == 0

    def test_admission_errors_reply_typed(self, artifact):
        # queue_size=1 and max_batch=1: a 200-sample request is admitted
        # faster than one-sample forward passes drain it, so admission
        # overflows partway through the request.
        worker = WorkerOnThread(artifact, batching={"max_batch": 1,
                                                    "queue_size": 1})
        worker.send({"kind": "predict", "id": 1, "samples": [np.zeros(9)]})
        worker.send({"kind": "predict", "id": 2,
                     "samples": [np.zeros(2), np.array([np.nan, 0.0])]})
        worker.send({"kind": "predict", "id": 3,
                     "samples": [np.zeros(2)] * 200})
        # The admitted head of request 3 still occupies the one-slot queue
        # after its rejection is answered; send request 4 once it drained.
        worker.recv_until(3)
        for poll_id in range(100, 1100):
            worker.send({"kind": "metrics", "id": poll_id})
            worker.recv_until(poll_id)
            if worker.received[-1]["result"]["queue_depth"] == 0:
                break
        worker.send({"kind": "predict", "id": 4, "samples": [np.zeros(2)]})
        replies = by_id(message for message in worker.shutdown()
                        if message["id"] < 100)
        assert set(replies) == {1, 2, 3, 4}
        assert replies[1]["etype"] == "ValueError"
        assert "input shape" in replies[1]["error"]
        assert replies[2]["etype"] == "ValueError"
        assert "non-finite" in replies[2]["error"]
        assert replies[3]["ok"] is False
        assert replies[3]["etype"] == "AdmissionError"
        assert replies[3]["retry_after_s"] > 0
        # The worker keeps serving after rejecting requests.
        assert replies[4]["ok"], replies[4]

    def test_traced_request_ships_its_worker_spans(self, artifact, samples):
        worker = WorkerOnThread(artifact, tracing=TraceConfig(enabled=True))
        context = {"trace_id": "t" * 16, "parent_id": "p" * 16,
                   "sampled": True}
        worker.send({"kind": "predict", "id": 1, "samples": list(samples[:3]),
                     "trace": context})
        worker.send({"kind": "predict", "id": 2, "samples": [samples[0]],
                     "trace": {"sampled": False}})
        replies = by_id(worker.shutdown())
        spans = replies[1]["result"]["trace_spans"]
        names = [span["name"] for span in spans]
        # One engine root per sample, each with its full stage chain.
        assert names.count("engine") == 3
        for stage in ("admission", "queue", "batch", "forward", "respond"):
            assert names.count(stage) == 3, (stage, names)
        assert {span["trace_id"] for span in spans} == {context["trace_id"]}
        assert "trace_spans" not in replies[2]["result"]

    def test_shutdown_answers_every_request_already_sent(
            self, artifact, reference, samples):
        worker = WorkerOnThread(artifact, batching={"max_batch": 8})
        for request_id in range(1, 31):
            worker.send({"kind": "predict", "id": request_id,
                         "samples": list(samples)})
        replies = by_id(worker.shutdown())
        assert sorted(replies) == list(range(1, 31))
        direct = reference.predict_batch(samples)
        for reply in replies.values():
            assert reply["ok"], reply
            assert np.array_equal(np.asarray(reply["result"]["logits"]),
                                  direct)

    def test_predicts_park_no_thread(self, artifact, samples):
        # Besides its reader, the worker runs exactly two threads: the
        # batcher and the control-plane helper — however many predicts
        # are in flight.
        before = set(threading.enumerate())
        worker = WorkerOnThread(artifact)
        for request_id in range(1, 65):
            worker.send({"kind": "predict", "id": request_id,
                         "samples": list(samples[:4])})
        # The ping is read after every predict was submitted.
        worker.send({"kind": "ping", "id": 100})
        worker.recv_until(100)
        started = sorted(thread.name for thread in
                         set(threading.enumerate()) - before
                         if thread is not worker.thread)
        replies = by_id(worker.shutdown())
        assert started == ["repro-serve-batcher", "repro-serve-control-0"]
        assert len(replies) == 65

    def test_control_plane_messages(self, artifact, samples):
        worker = WorkerOnThread(artifact)
        worker.send({"kind": "predict", "id": 1, "samples": [samples[0]]})
        worker.send({"kind": "control", "id": 2, "max_wait_ms": 3.5})
        worker.send({"kind": "ping", "id": 3})
        worker.send({"kind": "metrics", "id": 4})
        worker.send({"kind": "bogus", "id": 5})
        replies = by_id(worker.shutdown())
        assert replies[2]["result"]["max_wait_ms"] == 3.5
        assert replies[3]["result"]["worker"] == 0
        assert replies[4]["result"]["queue_capacity"] == 4096
        assert replies[5]["ok"] is False
        assert replies[5]["etype"] == "ValueError"


# --------------------------------------------------------------------- #
# The same contract through the supervisor and its HTTP listener
# --------------------------------------------------------------------- #
class TestClusterReplies:
    def test_multi_sample_rows_match_predict_batch_on_every_worker(
            self, artifact, reference, samples):
        direct = reference.predict_batch(samples)
        with ServeCluster(artifact, ClusterConfig(workers=2)) as cluster:
            for worker in (0, 1):
                payload = cluster.predict_on(worker, list(samples))
                assert payload["worker"] == worker
                assert np.array_equal(np.asarray(payload["logits"]), direct)
                assert payload["predictions"] == (
                    direct.argmax(axis=1).tolist())

    def test_admission_errors_cross_the_pipe_as_http_codes(self, artifact):
        cluster = ServeCluster(artifact, ClusterConfig(workers=2),
                               batching=BatchingConfig(max_batch=1,
                                                       queue_size=1))
        with ClusterServer(cluster) as server:
            client = HTTPClient(server.url)
            with pytest.raises(ServeClientError) as excinfo:
                client.predict([np.zeros(2)] * 200)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1  # the Retry-After header
            with pytest.raises(ServeClientError) as excinfo:
                client.predict([np.zeros(3)])
            assert excinfo.value.status == 400
            assert "input shape" in excinfo.value.message

    def test_stop_with_requests_in_flight_answers_them(
            self, artifact, reference, samples, monkeypatch):
        direct = reference.predict_batch(samples)
        # Slow every forward pass (forked workers inherit the patch), so
        # the requests are still queued in the workers when stop() lands.
        forward = InferenceEngine._forward

        def slow_forward(self, batch):
            time.sleep(0.005)
            return forward(self, batch)

        monkeypatch.setattr(InferenceEngine, "_forward", slow_forward)
        cluster = ServeCluster(artifact, ClusterConfig(workers=2),
                               batching=BatchingConfig(max_batch=4)).start()
        results, errors = [], []

        def client() -> None:
            try:
                results.append(cluster.predict(list(samples)))
            except Exception as exc:  # noqa: BLE001 - collected, asserted
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(12)]
        for thread in threads:
            thread.start()
        # Stop only once every request has been handed to a worker pipe:
        # each was sent before the shutdown message, so each must be
        # answered by the draining worker.
        deadline = time.monotonic() + 30.0
        while (sum(h.dispatched for h in cluster._handles) < len(threads)
               and time.monotonic() < deadline):
            time.sleep(0.005)
        assert sum(h.dispatched for h in cluster._handles) == len(threads)
        assert sum(h.outstanding for h in cluster._handles) > 0
        cluster.stop()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == len(threads)
        for payload in results:
            assert np.array_equal(np.asarray(payload["logits"]), direct)
