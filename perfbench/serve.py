"""Serving workloads: ``serve-open`` (in-process engine, open loop) and
``http-single`` / ``http-bulk`` (``repro serve --workers 2`` over HTTP,
closed loop).

All three serve the same artifact: a posit(8,1) MLP 2->2048->1024->3
exported once per run by ``train_and_export`` from a fixed seed.  The
workload seed only generates the request inputs.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from .common import (
    CHUNKS,
    OUT_DIR,
    SRC,
    Phase,
    SpanRecorder,
    check,
    chunk_median,
    codec_metrics,
    codec_targets,
    codec_totals,
    core_targets,
    median,
    nproc,
    pct,
    self_ms,
    self_peak_rss_mb,
    total_ms,
    tree_peak_rss_mb,
)

ARTIFACT_SEED = 0
SETUP_REPS = 5
PROBES = 8
#: The server's default latency objective (``repro serve --slo-p99-ms``),
#: applied here to p90, the highest percentile every rung samples well.
SLO_MS = 50.0
#: Open-loop arrival rates (requests/s), light load to past saturation.
#: The ladder climbs until two rungs in a row miss the SLO.
LADDER = (500, 1000, 2000, 3000, 3500, 4000, 4500, 5000, 5500, 6000)
#: The fixed rate, well below saturation, at which serve-open reports latency.
NOMINAL_RATE = 500
#: Open-loop rate of the untimed warm-up before serve-open measures.
WARMUP_RATE = 2000
BULK = 64


# --------------------------------------------------------------------- #
# Artifact and inputs
# --------------------------------------------------------------------- #
def export_artifact(recorder=None) -> str:
    from repro.api import ExperimentConfig
    from repro.serve import export as serve_export

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = str(OUT_DIR / f"model-{os.getpid()}.rpak")
    config = ExperimentConfig(
        name="perfbench-serve", dataset="blobs", model="mlp",
        policy="posit(8,1)", epochs=1, train_size=128, test_size=64,
        batch_size=32, num_classes=3, seed=ARTIFACT_SEED,
        data_seed=ARTIFACT_SEED, model_kwargs={"hidden": [2048, 1024]})
    with (recorder.patched(codec_targets() + [
            (serve_export, "export_experiment", "artifact.export")])
          if recorder is not None else contextlib.nullcontext()):
        serve_export.train_and_export(config, path)
    return path


def _setup_targets() -> list:
    """Wrap points of an engine's start-up: weight decode and guardrail."""
    from repro.serve import InferenceEngine
    from repro.serve import engine as engine_module

    return codec_targets() + [
        (engine_module, "load_model", "artifact.load"),
        (InferenceEngine, "run_guardrail", "engine.guardrail")]


def inputs(seed: int, count: int) -> np.ndarray:
    """Request samples: 2-d points around the blobs' range."""
    return np.random.default_rng(seed).normal(0.0, 3.0, size=(count, 2))


def _cold_caches() -> None:
    from repro.formats import clear_quantizer_cache
    from repro.formats.kernels import clear_kernel_cache

    clear_quantizer_cache()
    clear_kernel_cache()


# --------------------------------------------------------------------- #
# serve-open
# --------------------------------------------------------------------- #
def open_loop(engine, rate: float, duration: float, samples: np.ndarray,
              rng: np.random.Generator, phase: Phase) -> dict:
    """Poisson arrivals from this one thread; latency timed from due time."""
    from repro.serve import AdmissionError

    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    done_at = np.full(len(offsets), np.nan)
    lags = []
    futures = []
    start = time.perf_counter() + 0.005
    due_at = start + offsets

    def finished(index, future):
        done_at[index] = time.perf_counter()

    for index, due in enumerate(due_at):
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        lags.append(time.perf_counter() - due)
        try:
            future = engine.submit(samples[index % len(samples)])
        except AdmissionError:
            phase.record("rejected")
            continue
        future.add_done_callback(lambda f, i=index: finished(i, f))
        futures.append(future)
    for future in futures:
        try:
            future.result(timeout=60.0)
            phase.record("succeeded")
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            phase.record("failed", repr(exc))
    ok = ~np.isnan(done_at)
    latency_ms = (done_at[ok] - due_at[ok]) * 1e3
    window = np.minimum(((due_at[ok] - start) / duration * CHUNKS).astype(int), CHUNKS - 1)
    window_p90 = [pct(latency_ms[window == k], 90) for k in range(CHUNKS)]
    span = (np.nanmax(done_at) - start) if ok.any() else duration
    return {
        "sent": len(offsets), "completed": int(ok.sum()),
        "missed": len(offsets) - int(ok.sum()),
        "throughput": int(ok.sum()) / span,
        "p50": pct(latency_ms, 50), "p90": pct(latency_ms, 90),
        # Per-window p90s: their median discounts one stall of a shared
        # host, while a backlog that keeps growing fails the last two windows.
        "p90_windows": median(window_p90), "p90_late": min(window_p90[-2:]),
        "lag_ms_p90": pct(np.asarray(lags) * 1e3, 90),
    }


def max_rate_at_slo(rungs: list) -> float:
    """Achieved rate of the highest rung meeting the SLO without a backlog.

    A rung's p90 is the median of its windows' p90s.  Between the highest
    passing rung and the next (failing) one, the rate is interpolated to
    where that p90 crosses the SLO, so the figure moves smoothly with the
    system instead of jumping by a whole rung.  A next rung with failed,
    rejected or unfinished requests adds nothing.
    """
    passing = [index for index, row in enumerate(rungs) if row["ok"]]
    if not passing:
        return 0.0
    low = rungs[passing[-1]]
    if passing[-1] + 1 == len(rungs):
        return low["throughput"]
    high = rungs[passing[-1] + 1]
    if not high["clean"]:
        return low["throughput"]
    share = (SLO_MS - low["p90_windows"]) / max(high["p90_windows"] - low["p90_windows"], 1e-9)
    return low["throughput"] + min(max(share, 0.0), 1.0) * (
        high["throughput"] - low["throughput"])


def _engine(path: str, tracing=None):
    from repro.serve import BatchingConfig, InferenceEngine

    engine = InferenceEngine(path, BatchingConfig(), tracing=tracing)
    check(engine.guardrail_status == "passed",
          f"guardrail {engine.guardrail_status}, expected passed")
    return engine.start()


def _check_engine_probes(engine, probes: np.ndarray) -> None:
    expected = engine.predict_batch(probes)
    served = np.stack([future.result(30.0)
                       for future in [engine.submit(p) for p in probes]])
    check(np.array_equal(served, expected),
          "micro-batched logits differ from predict_batch")


def run_open(seed: int, seconds: float, trace: bool) -> dict:
    from repro.obs import TraceConfig

    recorder = SpanRecorder() if trace else None
    rng = np.random.default_rng(seed)
    samples = inputs(seed, 4096)
    probes = inputs(seed + 1, PROBES)
    setup = Phase("setup")
    setup_times = []
    path = export_artifact(recorder)
    engine = None
    try:
        with (recorder.patched(_setup_targets()) if trace else contextlib.nullcontext()):
            for _ in range(SETUP_REPS):
                if engine is not None:
                    engine.stop()
                    engine = None  # one engine alive at a time, as for a user
                _cold_caches()
                start = time.perf_counter()
                engine = _engine(path)
                setup_times.append(time.perf_counter() - start)
                setup.record("succeeded")
        _check_engine_probes(engine, probes)
        phases = [setup]
        # A fresh process serves measurably slower for its first seconds
        # under load (allocator and cache warm-up), so nothing is timed yet.
        warmup = Phase("warmup")
        open_loop(engine, WARMUP_RATE, 0.1 * seconds, samples, rng, warmup)
        phases.append(warmup)
        if not trace:
            # The fixed rate runs before the ladder's overload rungs, whose
            # backlog and garbage would otherwise still weigh on it.
            nominal = Phase(f"nominal-{NOMINAL_RATE}")
            fixed = [open_loop(engine, NOMINAL_RATE, 0.3 * seconds / CHUNKS, samples,
                               rng, nominal) for _ in range(CHUNKS)]
            phases.append(nominal)
            rung_s = 0.1 * seconds
            rungs = []
            for rate in LADDER:
                phase = Phase(f"rate-{rate}")
                row = open_loop(engine, rate, rung_s, samples, rng, phase)
                phases.append(phase)
                row["rate"] = rate
                row["clean"] = (phase.failed == 0 and phase.rejected == 0
                                and row["missed"] == 0)
                row["ok"] = (row["clean"] and row["p90_windows"] <= SLO_MS
                             and row["p90_late"] <= SLO_MS)
                rungs.append(row)
                if len(rungs) >= 2 and not (rungs[-1]["ok"] or rungs[-2]["ok"]):
                    break
                time.sleep(0.05)
            _check_engine_probes(engine, probes)
            metrics = {
                "setup_s": (median(setup_times), "s"),
                "peak_rss_mb": (self_peak_rss_mb(), "MB"),
                "samples_per_s": (max_rate_at_slo(rungs), "1/s"),
                "latency_ms.p50": (chunk_median(fixed, "p50"), "ms"),
                "latency_ms.p90": (chunk_median(fixed, "p90"), "ms"),
            }
            return {"metrics": metrics, "phases": [p.as_dict() for p in phases],
                    "checks": {"guardrail": "passed", "bit_identical": True,
                               "loadgen_threads": 1, "ladder": rungs,
                               "nominal": fixed}}

        plain_phase = Phase("nominal-untraced")
        plain = open_loop(engine, NOMINAL_RATE, seconds / 3, samples, rng, plain_phase)
        engine.stop()
        engine = _engine(path, TraceConfig(enabled=True, sample_rate=1.0,
                                           capacity=200_000, profile_codec=False))
        traced_phase = Phase("nominal-traced")
        model_cls = type(engine.model)
        with recorder.patched(codec_targets() + core_targets()
                              + [(model_cls, "__call__", "nn.forward")]):
            start = time.perf_counter()
            traced = open_loop(engine, NOMINAL_RATE, 2 * seconds / 3, samples,
                               rng, traced_phase)
            wall = time.perf_counter() - start
        stats = engine.stats()
        _check_engine_probes(engine, probes)
        phases += [plain_phase, traced_phase]
        metrics, _, _ = _engine_span_metrics(engine.tracer.spans(), wall, workers=1)
        rows = recorder.self_times()
        batches = max(stats["batches"], 1)
        metrics.update({
            "engine.batch_size.mean": (stats["mean_batch_size"], "count"),
            "engine.rejected": (stats["rejected"], "count"),
            "nn.forward_ms": (self_ms(rows, "nn.forward") / batches, "ms"),
            "core.quant_hooks_ms": (self_ms(rows, "core.quant_hooks") / batches, "ms"),
            "core.scale_ms": (self_ms(rows, "core.scale") / batches, "ms"),
            "core.record_ms": (self_ms(rows, "core.record") / batches, "ms"),
            "loadgen.lag_ms.p90": (plain["lag_ms_p90"], "ms"),
            "obs.tracing_overhead_share": (traced["p50"] / plain["p50"] - 1.0, "share"),
        })
        metrics.update(codec_metrics(codec_totals(rows),
                                     total_ms(rows, "formats.kernel_build") / SETUP_REPS))
        metrics.update(_setup_span_metrics(rows))
        return {"metrics": metrics, "phases": [p.as_dict() for p in phases],
                "checks": {"guardrail": "passed", "bit_identical": True},
                "recorder": recorder, "spans": engine.tracer.spans()}
    finally:
        if engine is not None:
            engine.stop()
        with contextlib.suppress(OSError):
            os.remove(path)


def _setup_span_metrics(rows: list) -> dict:
    def mean_ms(name):
        durations = [row[1] for row in rows if row[0] == name]
        return (sum(durations) / len(durations) * 1e3) if durations else 0.0

    return {"artifact.load_ms": (mean_ms("artifact.load"), "ms"),
            "artifact.export_ms": (mean_ms("artifact.export"), "ms"),
            "engine.guardrail_ms": (mean_ms("engine.guardrail"), "ms")}


def _engine_span_metrics(spans: list, wall: float, workers: int) -> tuple:
    """Queue wait, forward time and busy share from the engine's own spans.

    Returns the metrics, the busy share of each worker process, and the
    distinct forward spans (one per batch).
    """
    by_parent: dict = {}
    for span in spans:
        if span.parent_id is not None:
            by_parent.setdefault(span.parent_id, []).append(span)
    waits = []
    forwards: dict = {}
    for span in spans:
        if span.name != "engine":
            continue
        children = by_parent.get(span.span_id, [])
        stages = {child.name: child for child in children}
        if "queue" in stages and "batch" in stages:
            waits.append((stages["queue"].end_s - stages["queue"].start_s
                          + stages["batch"].end_s - stages["batch"].start_s) * 1e3)
        if "forward" in stages:
            fwd = stages["forward"]
            forwards[(fwd.pid, fwd.start_s)] = fwd
    busy: dict = {}
    for fwd in forwards.values():
        busy[fwd.pid] = busy.get(fwd.pid, 0.0) + (fwd.end_s - fwd.start_s)
    shares = [seconds / wall for seconds in busy.values()] or [0.0]
    metrics = {
        "engine.queue_wait_ms.p50": (pct(waits, 50), "ms"),
        "engine.queue_wait_ms.p90": (pct(waits, 90), "ms"),
        "engine.forward_ms.p50": (pct([(f.end_s - f.start_s) * 1e3
                                       for f in forwards.values()], 50), "ms"),
        "engine.busy_share": (sum(shares) / max(workers, 1), "share"),
    }
    return metrics, shares, list(forwards.values())


# --------------------------------------------------------------------- #
# HTTP workloads
# --------------------------------------------------------------------- #
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro serve <artifact> --workers 2 --no-control`` as its own process.

    The control loop stays off: its online tuning of the batching wait
    makes a closed loop of single-sample requests path dependent (it holds
    near 2 ms on some runs and climbs past 20 ms on others), which would
    confound the transport, dispatch and pipe costs these workloads isolate.
    """

    def __init__(self, path: str, trace: bool):
        from repro.serve import HTTPClient

        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                        if env.get("PYTHONPATH") else "")
        cmd = [sys.executable, "-m", "repro", "serve", path, "--workers", "2",
               "--no-control", "--port", str(self.port)]
        if trace:
            cmd.append("--trace")
        self.log_path = OUT_DIR / f"server-{os.getpid()}-{self.port}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL, env=env,
                                     start_new_session=True)
        self.client = HTTPClient(f"http://127.0.0.1:{self.port}", timeout=60.0)

    def wait_ready(self, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            check(self.proc.poll() is None,
                  f"server exited with {self.proc.returncode}: {self.log()}")
            try:
                health = self.client.healthz()
            except OSError:
                time.sleep(0.01)
                continue
            if (health.get("status") == "ok" and health.get("alive") == 2):
                check(health.get("guardrail") == ["passed", "passed"],
                      f"guardrail {health.get('guardrail')}, expected passed")
                return health
            time.sleep(0.01)
        raise TimeoutError(f"server not ready after {timeout}s: {self.log()}")

    def log(self) -> str:
        self._log.flush()
        return self.log_path.read_text(errors="replace")[-2000:]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait(timeout=20)
        # Workers exit on the supervisor's shutdown; sweep any straggler.
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self._log.close()
        with contextlib.suppress(OSError):
            os.remove(self.log_path)


def closed_loop(server: Server, samples: np.ndarray, per_request: int,
                seconds: float, phase: Phase, clients: int) -> dict:
    """``clients`` threads, each one request at a time, until ``seconds`` pass."""
    from repro.serve import HTTPClient, ServeClientError

    lock = threading.Lock()
    latencies: list = []
    traced: list = []
    in_flight = [0, 0]  # current, peak
    served = [0]
    deadline = time.perf_counter() + seconds

    def client(rank: int) -> None:
        http = HTTPClient(server.client.base_url, timeout=60.0)
        cursor = rank * per_request
        while time.perf_counter() < deadline:
            batch = [samples[(cursor + k) % len(samples)] for k in range(per_request)]
            cursor += clients * per_request
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight[1], in_flight[0])
            start = time.perf_counter()
            try:
                reply = http.predict(batch)
                outcome, error = "succeeded", None
            except ServeClientError as exc:
                outcome = "rejected" if exc.status == 429 else "failed"
                error = repr(exc)
            except OSError as exc:
                outcome, error = "failed", repr(exc)
            elapsed = time.perf_counter() - start
            with lock:
                in_flight[0] -= 1
                phase.record(outcome, error)
                if outcome == "succeeded":
                    latencies.append(elapsed * 1e3)
                    served[0] += per_request
                    if reply.get("trace_id"):
                        traced.append((reply["trace_id"], elapsed * 1e3))

    threads = [threading.Thread(target=client, args=(rank,), name=f"perfbench-client-{rank}")
               for rank in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        check(not thread.is_alive(), "load generator thread did not finish")
    wall = time.perf_counter() - start
    return {"samples_per_s": served[0] / wall, "p50": pct(latencies, 50),
            "p90": pct(latencies, 90), "requests": len(latencies),
            "threads": len(threads), "peak_in_flight": in_flight[1],
            "traced": traced}


def _check_server_probes(server: Server, reference: np.ndarray,
                         probes: np.ndarray) -> None:
    """Single-sample and bulk replies equal ``predict_batch``, on both workers.

    Each request is repeated until both workers have answered it; the
    supervisor alternates workers, so that takes two tries.
    """
    requests = [([probe], reference[index:index + 1])
                for index, probe in enumerate(probes)]
    requests.append((list(probes), reference))
    for batch, expected in requests:
        workers = set()
        for _ in range(8):
            reply = server.client.predict(batch)
            check(np.array_equal(np.asarray(reply["logits"]), expected),
                  f"served logits of {len(batch)} sample(s) differ from "
                  f"predict_batch on worker {reply.get('worker')}")
            workers.add(reply.get("worker"))
            if len(workers) == 2:
                break
        check(workers == {0, 1}, f"probes reached workers {sorted(workers)}, expected 0 and 1")


def _run_http(seed: int, seconds: float, trace: bool, per_request: int) -> dict:
    from repro.serve import InferenceEngine

    clients = nproc()
    samples = inputs(seed, 4096)
    probes = inputs(seed + 1, PROBES)
    recorder = SpanRecorder() if trace else None
    path = export_artifact(recorder)
    setup = Phase("setup")
    setup_times = []
    servers = []
    try:
        # The reference engine starts up exactly as each server worker does;
        # a traced run times that start-up here, inside this process.
        _cold_caches()
        with (recorder.patched(_setup_targets()) if trace else contextlib.nullcontext()):
            with InferenceEngine(path) as local:
                reference = local.predict_batch(probes)
        for _ in range(SETUP_REPS):
            if servers:
                servers[-1].stop()
            start = time.perf_counter()
            servers.append(Server(path, trace=False))
            servers[-1].wait_ready()
            setup_times.append(time.perf_counter() - start)
            setup.record("succeeded")
        server = servers[-1]
        _check_server_probes(server, reference, probes)
        warmup = Phase("warmup")
        closed_loop(server, samples, per_request, 0.1 * seconds, warmup, clients)
        load = Phase("load")
        if not trace:
            chunks = [closed_loop(server, samples, per_request, seconds / CHUNKS, load,
                                  clients) for _ in range(CHUNKS)]
            rss = tree_peak_rss_mb(server.proc.pid)
            _check_server_probes(server, reference, probes)
            metrics = {
                "setup_s": (median(setup_times), "s"),
                "peak_rss_mb": (rss, "MB"),
                "samples_per_s": (chunk_median(chunks, "samples_per_s"), "1/s"),
                "latency_ms.p50": (chunk_median(chunks, "p50"), "ms"),
                "latency_ms.p90": (chunk_median(chunks, "p90"), "ms"),
            }
            return {"metrics": metrics,
                    "phases": [setup.as_dict(), warmup.as_dict(), load.as_dict()],
                    "checks": {"guardrail": "passed", "bit_identical": True,
                               "clients": max(c["threads"] for c in chunks),
                               "peak_in_flight": max(c["peak_in_flight"]
                                                     for c in chunks)}}

        plain = closed_loop(server, samples, per_request, seconds / 3, load, clients)
        server.stop()
        server = Server(path, trace=True)
        servers.append(server)
        server.wait_ready()
        warmup_traced = Phase("warmup-traced")
        closed_loop(server, samples, per_request, 0.1 * seconds, warmup_traced,
                    clients)
        before = server.client.stats()
        traced_phase = Phase("load-traced")
        row = closed_loop(server, samples, per_request, 2 * seconds / 3,
                          traced_phase, clients)
        stats = server.client.stats()
        spans = _obs_spans(server.client.traces()["spans"])
        _check_server_probes(server, reference, probes)
        rows = recorder.self_times()
        metrics = _http_layer_metrics(spans, row, before, stats, rows)
        metrics.update(_setup_span_metrics(rows))
        metrics["obs.tracing_overhead_share"] = (
            plain["samples_per_s"] / row["samples_per_s"] - 1.0, "share")
        return {"metrics": metrics,
                "phases": [p.as_dict() for p in (setup, warmup, load, warmup_traced,
                                                 traced_phase)],
                "checks": {"guardrail": "passed", "bit_identical": True,
                           "clients": row["threads"],
                           "peak_in_flight": row["peak_in_flight"]},
                "recorder": recorder, "spans": spans}
    finally:
        for server in servers:
            server.stop()
        with contextlib.suppress(OSError):
            os.remove(path)


def _obs_spans(payloads: list) -> list:
    from repro.obs import Span

    return [Span.from_dict(payload) for payload in payloads]


def _http_layer_metrics(spans: list, row: dict, before: dict, stats: dict,
                        codec_rows: list) -> dict:
    """Per-layer figures of a traced HTTP run.

    ``spans`` come from the server's /traces, ``before``/``stats`` are its
    /stats around the traced phase, and ``codec_rows`` are this process's
    own codec spans (export and the reference engine's start-up), added to
    the workers' codec profile.
    """
    start = min((span.start_s for span in spans), default=0.0)
    end = max((span.end_s for span in spans), default=1.0)
    engine, shares, forwards = _engine_span_metrics(spans, max(end - start, 1e-9),
                                                    workers=2)
    shares = shares + [0.0, 0.0]
    batch_sizes = [f.annotations.get("batch_size", 0) for f in forwards]

    by_trace: dict = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    dispatch, request_ms = [], {}
    for trace_id, members in by_trace.items():
        roots = [s for s in members if s.name == "request" and s.parent_id is None]
        engines = [s for s in members if s.name == "engine"]
        if not roots:
            continue
        request_ms[trace_id] = roots[0].duration_ms
        if engines:
            engine_ms = (max(s.end_s for s in engines)
                         - min(s.start_s for s in engines)) * 1e3
            dispatch.append(roots[0].duration_ms - engine_ms)
    transport = [latency - request_ms[trace_id]
                 for trace_id, latency in row["traced"] if trace_id in request_ms]

    served = np.subtract(stats["dispatched"], before["dispatched"][:len(stats["dispatched"])])
    imbalance = (float(served.max() - served.min()) / float(served.mean())
                 if served.size and served.mean() > 0 else 0.0)

    ops = codec_totals(codec_rows)
    for worker in stats.get("per_worker", []):
        for per_op in (worker.get("codec_profile") or {}).get("formats", {}).values():
            for op, entry in per_op.items():
                cell = ops[op]
                cell[0] += entry["calls"]
                cell[1] += entry["elements"]
                cell[2] += entry["ns"]
    metrics = dict(engine)
    metrics.update({
        "engine.batch_size.mean": (float(np.mean(batch_sizes)) if batch_sizes else 0.0,
                                   "count"),
        "engine.rejected": (stats.get("rejected", 0), "count"),
        "cluster.dispatch_ms.p50": (pct(dispatch, 50), "ms"),
        "cluster.worker_busy_share.min": (min(shares[:2]), "share"),
        "cluster.worker_busy_share.max": (max(shares[:2]), "share"),
        "cluster.served_imbalance": (imbalance, "share"),
        "cluster.worker_restarts": (stats.get("restarts", 0), "count"),
        "transport.http_ms.p50": (pct(transport, 50), "ms"),
    })
    metrics.update(codec_metrics(ops, total_ms(codec_rows, "formats.kernel_build")))
    return metrics


def run_http_single(seed: int, seconds: float, trace: bool) -> dict:
    return _run_http(seed, seconds, trace, per_request=1)


def run_http_bulk(seed: int, seconds: float, trace: bool) -> dict:
    return _run_http(seed, seconds, trace, per_request=BULK)
