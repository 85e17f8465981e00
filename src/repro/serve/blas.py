"""Per-process BLAS thread budget for serve workers.

NumPy's matmuls run on the BLAS library it was built against, and OpenBLAS
starts one compute thread per core the first time a GEMM is large enough.
A worker forked by :class:`~repro.serve.cluster.ServeCluster` inherits that
full-width pool, so N workers on C cores run N x C BLAS threads that fight
over C cores.  Each worker therefore pins its own pool to
:func:`worker_budget` threads — ``max(1, cores // workers)`` — through the
library's own ``set_num_threads`` entry point, found among the shared
objects the process has already loaded and called via :mod:`ctypes`
(environment variables are read once at library load, which a forked child
has already done).

The thread count is process-wide native state, so the record of what this
module set is module-level too: it mirrors the library, it does not hold
any caller's configuration.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Iterator, Optional

import numpy  # noqa: F401 - maps the BLAS library into this process

__all__ = ["BLAS_ENV_VARS", "blas_env", "blas_info", "blas_pinnable",
           "set_blas_threads", "usable_cores", "worker_budget"]

#: Variables a BLAS library reads when it is loaded; they only reach a
#: child that imports NumPy after they are set (the ``spawn`` start method).
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: (setter, getter) symbol pairs, tried in order: NumPy's bundled
#: scipy-openblas, an ILP64 system OpenBLAS, a plain OpenBLAS, then MKL.
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)

_lock = threading.Lock()
_env_lock = threading.Lock()
_unprobed = object()
_library = _unprobed
#: Threads this module last set, or ``None`` while the pool is untouched.
_pinned_threads: Optional[int] = None


class _Blas:
    """One loaded BLAS library's thread controls."""

    def __init__(self, path: str, handle: ctypes.CDLL, setter: str,
                 getter: str):
        self.name = os.path.basename(path) if path else "process"
        self.set_threads = getattr(handle, setter)
        self.set_threads.argtypes = [ctypes.c_int]
        self.set_threads.restype = None
        self.get_threads = getattr(handle, getter, None)
        if self.get_threads is not None:
            self.get_threads.argtypes = []
            self.get_threads.restype = ctypes.c_int


def _loaded_blas_paths() -> list:
    """Shared objects mapped into this process that look like a BLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "/" in line}
    except OSError:
        return []
    return sorted(path for path in paths
                  if "blas" in os.path.basename(path).lower()
                  or "mkl" in os.path.basename(path).lower())


def _probe() -> Optional[_Blas]:
    candidates = [(path, ctypes.CDLL(path)) for path in _loaded_blas_paths()
                  if os.path.exists(path)]
    # A statically linked or globally loaded BLAS resolves from the process.
    candidates.append(("", ctypes.CDLL(None)))
    for setter, getter in _ENTRY_POINTS:
        for path, handle in candidates:
            if hasattr(handle, setter):
                return _Blas(path, handle, setter, getter)
    return None


def _blas() -> Optional[_Blas]:
    global _library
    with _lock:
        if _library is _unprobed:
            try:
                _library = _probe()
            except (OSError, TypeError):  # unloadable, or no dlopen(NULL)
                _library = None
        return _library


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else ``cpu_count``."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def worker_budget(workers: int, cores: Optional[int] = None) -> int:
    """BLAS threads each of ``workers`` processes gets: ``max(1, cores // workers)``."""
    cores = usable_cores() if cores is None else int(cores)
    return max(1, cores // max(1, int(workers)))


def blas_pinnable() -> bool:
    """True when this process's BLAS thread pool can be resized at run time."""
    return _blas() is not None


def set_blas_threads(threads: int) -> bool:
    """Resize this process's BLAS pool to ``threads``; ``False`` if impossible.

    Must not run while another thread of the process is inside a BLAS call:
    OpenBLAS tears down and rebuilds its pool here.
    """
    global _pinned_threads
    library = _blas()
    if library is None:
        return False
    threads = max(1, int(threads))
    with _lock:
        library.set_threads(threads)
        _pinned_threads = threads
    return True


def blas_info() -> dict:
    """``{library, threads, pinned}`` for ``/stats``.

    ``threads`` is what the library reports (``None`` when it cannot be
    asked); ``pinned`` is true once :func:`set_blas_threads` has sized it.
    """
    library = _blas()
    if library is None:
        return {"library": None, "threads": None, "pinned": False}
    threads = (int(library.get_threads()) if library.get_threads is not None
               else _pinned_threads)
    return {"library": library.name, "threads": threads,
            "pinned": _pinned_threads is not None}


@contextlib.contextmanager
def blas_env(threads: int) -> Iterator[None]:
    """Set :data:`BLAS_ENV_VARS` to ``threads`` for the duration of the block.

    For ``spawn`` children, which inherit the environment at start and
    import NumPy afresh; the variables are restored afterwards.
    """
    with _env_lock:
        saved = {name: os.environ.get(name) for name in BLAS_ENV_VARS}
        os.environ.update({name: str(max(1, int(threads)))
                           for name in BLAS_ENV_VARS})
        try:
            yield
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
