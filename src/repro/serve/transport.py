"""Dependency-free JSON-over-HTTP transport for the inference engine.

A thin stdlib (:mod:`http.server`) shell around
:class:`~repro.serve.engine.InferenceEngine` — no web framework, so the
server runs anywhere the library does:

``POST /predict``
    Body ``{"inputs": [[...sample...], ...]}`` (always a *list of samples*;
    one sample is a one-element list).  Every sample is submitted to the
    engine individually, so concurrent HTTP clients coalesce in the
    micro-batcher exactly like in-process callers.  Response:
    ``{"predictions": [argmax...], "logits": [[...]...]}``, as strict JSON
    (no ``NaN``/``Infinity`` tokens).  A sample of the wrong shape or with
    a non-finite value is a 400; a full admission queue is a 429 with
    ``Retry-After``.
``GET /healthz``
    ``{"status": "ok", "artifact": ..., "format": ...}`` — liveness.
``GET /stats``
    The engine's :meth:`~repro.serve.engine.InferenceEngine.stats` dict.

:class:`LocalClient` exposes the same request/response contract in process
(tests and the load generator run against either transport unchanged), and
:class:`HTTPClient` is the matching :mod:`urllib` client.

The HTTP shell is backend-agnostic: :class:`ModelServer` fronts one
in-process :class:`~repro.serve.engine.InferenceEngine`, and
:class:`ClusterServer` fronts a multi-worker
:class:`~repro.serve.cluster.ServeCluster` — same endpoints, same error
mapping, so clients cannot tell one worker from eight (except that
``/stats`` aggregates across workers and ``/predict`` responses carry the
serving worker's index).
"""

from __future__ import annotations

import json
import math
import threading
import urllib.error
import urllib.request
from concurrent.futures import TimeoutError as FuturesTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence

import numpy as np

from ..obs.tracing import TRACE_HEADER
from .engine import AdmissionError, InferenceEngine
from .metrics import render_prometheus

__all__ = ["ModelServer", "ClusterServer", "LocalClient", "HTTPClient",
           "ServeClientError"]


def _controller_families(controller) -> Optional[list]:
    """Prometheus families for an attached controller's decision counters."""
    if controller is None:
        return None
    counts = getattr(controller, "decision_counts", None)
    if not counts:
        return None
    return [{
        "name": "repro_controller_decisions_total",
        "type": "counter",
        "help": "Control-loop decisions taken, by action "
                "(scale_up/scale_down/wait_increase/wait_backoff).",
        "samples": [({"action": action}, float(value))
                    for action, value in sorted(counts.items())],
    }]


class ServeClientError(RuntimeError):
    """A client-visible request failure (HTTP status + server message).

    ``retry_after`` carries the server's ``Retry-After`` hint in seconds
    when the failure was backpressure (HTTP 429), ``None`` otherwise — the
    load generator uses it to pace rejected clients.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _predict_payload(engine: InferenceEngine, samples: Sequence,
                     trace_id: Optional[str] = None) -> dict:
    """Shared request semantics for both transports: fan out, gather, reply.

    When the engine's tracer is enabled (and this request is sampled) a
    ``request`` root span wraps the whole fan-out and its trace id is
    echoed in the payload, so HTTP clients can correlate a slow response
    with an exported trace.  ``trace_id`` lets the caller (the
    ``X-Repro-Trace-Id`` header path) supply the id.
    """
    if not isinstance(samples, (list, tuple)) or not samples:
        raise ValueError("'inputs' must be a non-empty list of samples")
    tracer = engine.tracer
    root = tracer.begin("request", trace_id=trace_id,
                        annotations={"samples": len(samples)})
    # An explicitly unsampled context keeps the engine from re-rolling the
    # sampling dice per sample: the transport's decision is the request's.
    ctx = (root.context() if root is not None
           else ({"sampled": False} if tracer.enabled else None))
    try:
        futures = [engine.submit(np.asarray(sample, dtype=np.float64),
                                 trace=ctx)
                   for sample in samples]
        logits = [future.result(timeout=60.0) for future in futures]
    except BaseException as exc:
        if root is not None:
            root.finish(error=repr(exc))
        raise
    payload = {
        "predictions": [int(np.argmax(row)) for row in logits],
        "logits": [np.asarray(row, dtype=np.float64).tolist() for row in logits],
    }
    if root is not None:
        root.finish()
        payload["trace_id"] = root.trace_id
    return payload


class _EngineBackend:
    """Serving backend over one in-process :class:`InferenceEngine`.

    ``controller`` (optional) is an attached control loop whose decision
    history rides along in ``/stats`` and whose decision counters become
    the ``repro_controller_decisions_total`` Prometheus family.
    """

    def __init__(self, engine: InferenceEngine, controller=None):
        self.engine = engine
        self.controller = controller

    @property
    def tracer(self):
        return self.engine.tracer

    def handle_predict(self, samples, trace_id: Optional[str] = None) -> dict:
        return _predict_payload(self.engine, samples, trace_id=trace_id)

    def healthz(self) -> tuple[int, dict]:
        # Load states for a single engine: ok / busy / overloaded from its
        # admission queue (the process answering at all proves liveness).
        return 200, {
            "status": self.engine.load_state(),
            "artifact": self.engine.artifact_path,
            "format": self.engine.format.spec(),
            "guardrail": self.engine.guardrail_status,
        }

    def stats(self) -> dict:
        payload = self.engine.stats()
        if self.controller is not None:
            payload["controller"] = self.controller.describe()
        return payload

    def traces(self) -> dict:
        tracer = self.engine.tracer
        return {"tracing": tracer.summary(),
                "spans": [span.to_dict() for span in tracer.spans()]}

    def metrics_text(self) -> str:
        return render_prometheus(
            self.engine.metrics.snapshot(),
            extra={"queue_depth_now": self.engine.queue_depth,
                   "max_wait_ms_now": self.engine.max_wait_ms,
                   "workers": 1},
            families=_controller_families(self.controller))

    def start(self) -> None:
        self.engine.start()

    def stop(self) -> None:
        self.engine.stop()


class _ClusterBackend:
    """Serving backend over a multi-worker ``ServeCluster``."""

    def __init__(self, cluster, controller=None):
        self.cluster = cluster
        self.controller = controller

    @property
    def tracer(self):
        return self.cluster.tracer

    def handle_predict(self, samples, trace_id: Optional[str] = None) -> dict:
        if not isinstance(samples, (list, tuple)) or not samples:
            raise ValueError("'inputs' must be a non-empty list of samples")
        return self.cluster.predict(list(samples), trace_id=trace_id)

    def healthz(self) -> tuple[int, dict]:
        payload = self.cluster.healthz()
        # A cluster with zero live workers is not a server, it is an outage;
        # every other state (busy/overloaded/degraded) still answers 200 so
        # load balancers keep it in rotation — overload is signalled per
        # request via 429, not by failing the health probe.
        return (503 if payload["status"] == "down" else 200), payload

    def stats(self) -> dict:
        payload = self.cluster.stats()
        if self.controller is not None:
            payload["controller"] = self.controller.describe()
        return payload

    def traces(self) -> dict:
        tracer = self.cluster.tracer
        return {"tracing": tracer.summary(),
                "spans": [span.to_dict() for span in tracer.spans()]}

    def metrics_text(self) -> str:
        health = self.cluster.healthz()
        return render_prometheus(
            self.cluster.metrics_snapshot(),
            extra={"workers": health["workers"],
                   "workers_alive": health["alive"],
                   "max_wait_ms_now": self.cluster.max_wait_ms},
            families=_controller_families(self.controller))

    def start(self) -> None:
        self.cluster.start()

    def stop(self) -> None:
        self.cluster.stop()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # Silence per-request stderr logging; stats live in /stats.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, payload: dict,
               headers: Optional[dict] = None) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", headers)

    def _reply_text(self, status: int, text: str,
                    content_type: str = "text/plain; version=0.0.4") -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _send(self, status: int, body: bytes, content_type: str,
              headers: Optional[dict] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    @property
    def backend(self):
        return self.server.backend  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - stdlib signature
        if self.path == "/healthz":
            status, payload = self.backend.healthz()
            self._reply(status, payload)
        elif self.path == "/stats":
            self._reply(200, self.backend.stats())
        elif self.path == "/traces":
            self._reply(200, self.backend.traces())
        elif self.path == "/metrics":
            try:
                self._reply_text(200, self.backend.metrics_text())
            except Exception as exc:  # noqa: BLE001 - a scrape must not kill
                # the listener thread; degrade to an empty exposition.
                self._reply_text(200, f"# metrics unavailable: {exc}\n")
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib signature
        if self.path != "/predict":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            document = json.loads(self.rfile.read(length) or b"")
            if not isinstance(document, dict):
                raise ValueError("request body must be a JSON object")
            # Trace-context propagation: a client-supplied X-Repro-Trace-Id
            # names the request's trace; the response echoes the id (header
            # + payload) whenever the request was traced.
            trace_id = self.headers.get(TRACE_HEADER) or None
            payload = self.backend.handle_predict(document.get("inputs"),
                                                  trace_id=trace_id)
        except FuturesTimeout as exc:  # wedged/overloaded batcher
            self._reply(504, {"error": f"prediction timed out: {exc}"})
            return
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        except AdmissionError as exc:
            # Backpressure, not failure: the admission queue is full, so
            # tell the client *when* to come back.  Retry-After is integer
            # delta-seconds per RFC 9110 (rounded up, never 0).
            retry_after = max(0.05, float(exc.retry_after_s))
            self._reply(429, {"error": str(exc),
                              "retry_after_s": retry_after},
                        headers={"Retry-After":
                                 str(max(1, math.ceil(retry_after)))})
            return
        except RuntimeError as exc:  # engine stopped / no workers
            self._reply(503, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - a JSON 500 beats a dropped
            # connection: unexpected engine failures must still honour the
            # transport's error contract.
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        try:
            # Strict RFC 8259 JSON: a bare NaN/Infinity token breaks clients.
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError:
            # Admission refuses non-finite inputs, but finite ones can still
            # overflow to non-finite logits, which JSON cannot carry.
            self._reply(500, {"error": "the model produced non-finite "
                                       "logits for this input"})
            return
        headers = ({TRACE_HEADER: payload["trace_id"]}
                   if payload.get("trace_id") else None)
        self._send(200, body, "application/json", headers)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The socketserver default backlog (5) drops connections the moment a
    # few dozen closed-loop clients connect at once; size it for the
    # concurrency the micro-batcher is built to absorb.
    request_queue_size = 256


class _HTTPShell:
    """Shared threaded-HTTP lifecycle over one serving backend."""

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0):
        self._backend = backend
        self._httpd = _Server((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.backend = backend  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Start the backend and serve requests on a background thread."""
        self._backend.start()
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._httpd.serve_forever,
                                            name="repro-serve-http", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, then stop the backend."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._thread = None
        self._httpd.server_close()
        self._backend.stop()

    def serve_forever(self) -> None:
        """Blocking serve loop (the ``repro serve`` CLI path)."""
        self._backend.start()
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self._backend.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ModelServer(_HTTPShell):
    """Threaded HTTP server wrapping one :class:`InferenceEngine`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after construction) — the test- and CI-friendly default.  The server
    owns the engine lifecycle: :meth:`start` starts the micro-batcher,
    :meth:`stop` shuts both down.
    """

    def __init__(self, engine: InferenceEngine, host: str = "127.0.0.1",
                 port: int = 0, controller=None):
        super().__init__(_EngineBackend(engine, controller=controller),
                         host=host, port=port)
        self.engine = engine

    def attach_controller(self, controller) -> None:
        """Expose a control loop's decisions via /stats and /metrics."""
        self._backend.controller = controller


class ClusterServer(_HTTPShell):
    """One HTTP listener over a multi-worker :class:`ServeCluster`.

    The listener thread pool accepts and parses requests; the actual MAC
    work happens in the cluster's worker processes, so the GIL in this
    process only touches JSON framing.  ``/stats`` aggregates across
    workers; ``/healthz`` reports ``ok``/``degraded``/``down`` (the last
    with HTTP 503).
    """

    def __init__(self, cluster, host: str = "127.0.0.1", port: int = 0,
                 controller=None):
        super().__init__(_ClusterBackend(cluster, controller=controller),
                         host=host, port=port)
        self.cluster = cluster

    def attach_controller(self, controller) -> None:
        """Expose a control loop's decisions via /stats and /metrics."""
        self._backend.controller = controller


class LocalClient:
    """In-process client speaking the transport's request contract.

    Drives the engine's micro-batcher directly — the load generator and the
    tests use it to exercise batching without socket overhead.
    """

    def __init__(self, engine: InferenceEngine):
        self.engine = engine

    def predict(self, samples: Sequence,
                trace_id: Optional[str] = None) -> dict:
        try:
            return _predict_payload(self.engine, list(samples),
                                    trace_id=trace_id)
        except FuturesTimeout as exc:
            raise ServeClientError(504, f"prediction timed out: {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ServeClientError(400, str(exc)) from exc
        except AdmissionError as exc:
            raise ServeClientError(429, str(exc),
                                   retry_after=exc.retry_after_s) from exc
        except RuntimeError as exc:
            raise ServeClientError(503, str(exc)) from exc

    def healthz(self) -> dict:
        return {"status": self.engine.load_state(),
                "artifact": self.engine.artifact_path,
                "format": self.engine.format.spec(),
                "guardrail": self.engine.guardrail_status}

    def stats(self) -> dict:
        return self.engine.stats()

    def traces(self) -> dict:
        tracer = self.engine.tracer
        return {"tracing": tracer.summary(),
                "spans": [span.to_dict() for span in tracer.spans()]}

    def metrics(self) -> str:
        return render_prometheus(
            self.engine.metrics.snapshot(),
            extra={"queue_depth_now": self.engine.queue_depth,
                   "max_wait_ms_now": self.engine.max_wait_ms,
                   "workers": 1})


class HTTPClient:
    """Minimal :mod:`urllib` client for a running :class:`ModelServer`."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, path: str, payload: Optional[dict] = None,
                 headers: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request_headers = dict(headers or {})
        if data:
            request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data,
                                         headers=request_headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", "")
            except Exception:  # noqa: BLE001 - best-effort error body
                message = exc.reason
            retry_after = None
            header = exc.headers.get("Retry-After") if exc.headers else None
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise ServeClientError(exc.code, str(message),
                                   retry_after=retry_after) from exc

    def predict(self, samples: Sequence,
                trace_id: Optional[str] = None) -> dict:
        samples = [np.asarray(sample, dtype=np.float64).tolist()
                   for sample in samples]
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        return self._request("/predict", {"inputs": samples},
                             headers=headers)

    def healthz(self) -> dict:
        return self._request("/healthz")

    def stats(self) -> dict:
        return self._request("/stats")

    def traces(self) -> dict:
        return self._request("/traces")

    def metrics(self) -> str:
        url = f"{self.base_url}/metrics"
        request = urllib.request.Request(url)
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")
