"""Shared pieces of the benchmark: environment stamp, phase accounting,
statistics, process memory, and the span recorder used by traced runs.

The span recorder measures from outside the program: it wraps public
functions of the layers (``LayerQuantContext.weight``, ``SGD.step``, ...)
for the duration of a traced phase, keeps spans in memory, and restores
the originals afterwards.  No program file is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run result files and Chrome traces (ignored by git).
OUT_DIR = ROOT / ".perfbench"


def nproc() -> int:
    """Cores this process may run on: the load generator's thread budget."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# --------------------------------------------------------------------- #
# Environment stamp
# --------------------------------------------------------------------- #
def _blas_info() -> dict:
    """BLAS library and thread count as found; never sets either."""
    info: dict = {"library": "unknown", "threads": None,
                  "env": {name: os.environ.get(name) for name in
                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "MKL_NUM_THREADS")}}
    try:
        config = np.show_config(mode="dicts")
        blas = (config.get("Build Dependencies") or {}).get("blas") or {}
        info["library"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        paths = []
    if paths:
        import ctypes

        lib = ctypes.CDLL(paths[0])
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                break
    return info


def _commit() -> str:
    """The git commit when run from a clone, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment() -> dict:
    """Cores, BLAS, versions, codec-kernel flag and commit of this run."""
    from repro.formats import kernels_enabled

    return {
        "cores": os.cpu_count(),
        "nproc": nproc(),
        "blas": _blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "codec_kernels": bool(kernels_enabled()),
        "commit": _commit(),
    }


# --------------------------------------------------------------------- #
# Statistics and accounting
# --------------------------------------------------------------------- #
def pct(values: Iterable[float], q: float) -> float:
    data = np.asarray(list(values), dtype=np.float64)
    return float(np.percentile(data, q)) if data.size else 0.0


def median(values: Iterable[float]) -> float:
    return pct(values, 50)


#: Timed phases run as this many consecutive chunks, and each end-to-end
#: figure is the median over the chunks: a burst of interference from other
#: tenants of a shared host then moves one chunk, not the result.
CHUNKS = 5


def chunk_median(chunks: list, key: str) -> float:
    return median(chunk[key] for chunk in chunks)


class Phase:
    """Attempted / succeeded / failed / rejected tally of one run phase."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.succeeded = 0
        self.failed = 0
        self.rejected = 0
        self.errors: list[str] = []

    def record(self, outcome: str, error: Optional[str] = None) -> None:
        self.attempted += 1
        setattr(self, outcome, getattr(self, outcome) + 1)
        if error is not None and len(self.errors) < 5:
            self.errors.append(error)

    def as_dict(self) -> dict:
        return {"phase": self.name, "attempted": self.attempted,
                "succeeded": self.succeeded, "failed": self.failed,
                "rejected": self.rejected, "errors": list(self.errors)}


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------- #
# Process memory
# --------------------------------------------------------------------- #
def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets (VmHWM) of ``pid`` and its descendants."""
    total_kib = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="utf-8") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            continue
        pending.extend(_children(current))
    return total_kib / 1024.0


# --------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------- #
class SpanRecorder:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(id, parent, name, start_s, end_s, thread, elements)``;
    ``parent`` is the innermost open span of the same thread, so a layer's
    self time is its duration minus that of its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, opened: tuple, name: str, elements: int = 0) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent, start = opened
        self.spans.append((span_id, parent, name, start, end,
                           threading.get_ident(), elements))

    def wrap(self, name: str, fn: Callable, count_elements: bool = False) -> Callable:
        """``fn`` recording a span per call; ``count_elements`` sizes ``args[1]``."""
        recorder = self

        def wrapper(*args, **kwargs):
            opened = recorder._open()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(opened, name, int(np.size(args[1]))
                                if count_elements and len(args) > 1 else 0)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name)

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Wrap ``(owner, attribute, span_name[, count_elements])`` targets.

        Originals are restored on exit, including attributes an owner
        class only inherited (those are deleted again).
        """
        restore = []
        try:
            for owner, attr, name, *count in targets:
                own = vars(owner)
                restore.append((owner, attr, attr in own, own.get(attr)))
                setattr(owner, attr,
                        self.wrap(name, getattr(owner, attr), bool(count and count[0])))
            yield self
        finally:
            for owner, attr, had_own, saved in reversed(restore):
                if had_own:
                    setattr(owner, attr, saved)
                else:
                    delattr(owner, attr)

    # -- aggregation ----------------------------------------------------
    def self_times(self) -> list[tuple]:
        """``(name, duration_s, self_s, elements, parent_name)`` per span."""
        spans = self.spans
        names = {span[0]: span[2] for span in spans}
        child_s: dict = {}
        for span in spans:
            if span[1]:
                child_s[span[1]] = child_s.get(span[1], 0.0) + (span[4] - span[3])
        return [(span[2], span[4] - span[3],
                 (span[4] - span[3]) - child_s.get(span[0], 0.0),
                 span[6], names.get(span[1]))
                for span in spans]

    def to_obs_spans(self) -> list:
        """The spans as :class:`repro.obs.Span` (one trace per thread)."""
        from repro.obs import Span

        pid = os.getpid()
        return [Span(trace_id=f"thread-{tid}", span_id=str(span_id),
                     parent_id=str(parent) if parent else None, name=name,
                     start_s=start, end_s=end, pid=pid,
                     annotations={"elements": elements} if elements else {})
                for span_id, parent, name, start, end, tid, elements in self.spans]


def export_chrome(spans: list, path: Path) -> int:
    """Write spans as a Chrome trace; raise unless the repo's validator passes."""
    from repro.obs import to_chrome_trace, validate_chrome_trace

    doc = to_chrome_trace(spans)
    problems = validate_chrome_trace(doc)
    check(not problems, f"Chrome trace invalid: {problems[:3]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return len(doc["traceEvents"])


def codec_targets() -> list[tuple]:
    """Wrap points of the codec layer (``repro.formats``).

    Quantizers handed out by the factory call the kernel directly, and the
    format classes' own methods dispatch to it, so neither nests in the
    other and no call is counted twice.
    """
    from repro.formats import FixedPointFormat, kernels
    from repro.posit import FloatFormat, PositConfig

    targets = [(kernels.KernelQuantizer, "__call__", "formats.quantize", True),
               (kernels.KernelQuantizer, "to_bits", "formats.to_bits", True),
               (kernels.KernelQuantizer, "from_bits", "formats.from_bits", True),
               (kernels, "get_kernel", "formats.kernel_build")]
    for cls in (PositConfig, FloatFormat, FixedPointFormat):
        for op in ("quantize", "to_bits", "from_bits"):
            targets.append((cls, op, f"formats.{op}", True))
    return targets


def core_targets() -> list[tuple]:
    """Wrap points of the quantization flow (``repro.core``)."""
    from repro.core import transform
    from repro.core.scaling import ScaleEstimator

    targets = [(transform.LayerQuantContext, hook, "core.quant_hooks")
               for hook in ("weight", "activation", "error", "weight_grad", "param")]
    targets.append((transform, "apply_scaled_quantization", "core.quant_hooks"))
    targets.append((ScaleEstimator, "scale_for", "core.scale"))
    targets.append((transform.RoleStats, "record", "core.record"))
    return targets


CODEC_OPS = ("quantize", "to_bits", "from_bits")


def codec_totals(rows: list[tuple]) -> dict:
    """``op -> [calls, elements, ns]`` from :meth:`SpanRecorder.self_times` rows.

    A codec call nested inside another call of the same op is skipped.
    """
    totals = {op: [0, 0, 0.0] for op in CODEC_OPS}
    for name, duration, _, elements, parent in rows:
        cell = totals.get(name[len("formats."):]) if name.startswith("formats.") else None
        if cell is not None and parent != name:
            cell[0] += 1
            cell[1] += elements
            cell[2] += duration * 1e9
    return totals


def codec_metrics(totals: dict, kernel_build_ms: float) -> dict:
    """The ``formats.*`` metrics from :func:`codec_totals`-shaped totals."""
    out = {}
    for op, (calls, elements, ns) in totals.items():
        out[f"formats.{op}.calls"] = (calls, "count")
        out[f"formats.{op}.elements"] = (elements, "count")
        out[f"formats.{op}.ns_per_elem"] = ((ns / elements) if elements else 0.0, "ns")
    out["formats.kernel_build_ms"] = (kernel_build_ms, "ms")
    return out


def self_ms(rows: list[tuple], name: str) -> float:
    return sum(row[2] for row in rows if row[0] == name) * 1e3


def total_ms(rows: list[tuple], name: str) -> float:
    return sum(row[1] for row in rows if row[0] == name) * 1e3


def write_result(name: str, payload: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=str)


def log(message: str) -> None:
    print(message, flush=True)
