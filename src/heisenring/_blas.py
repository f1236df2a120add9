"""OpenBLAS thread count per call, from the width of the matrix.

A second BLAS thread shortens an eigensolve only on wide matrices; on the
narrow momentum and sector blocks most solves see, it spins and costs CPU
time, and a fresh process at two threads sometimes stalls on them.  In one
warm process (2 vCPU, OpenBLAS 0.3.31, the median of three passes) going
from one thread to two saved this share of the wall time:

    width       64    128    256    512   1024   2048
    eigh       24%    -9%    -3%    13%    28%    32%
    eigvalsh    4%    -7%    -4%     9%    27%    30%
    a @ a       0%     9%    40%    28%    35%    50%

Below 512 the eigensolver entries are noise of a shared machine.  The
products gain from width 256, but those of that width (verify's N = 8
Gibbs matrices) take under a millisecond each, so one WIDE serves all
three.

The spare threads cost even before the first solve: OpenBLAS starts them
when numpy loads it, and they spin.  On the same machine a bare ``import
numpy`` took 0.178 s of CPU time at two threads, 0.118 s at one, and
0.110 s at two with the spin cut short by OPENBLAS_THREAD_TIMEOUT=4
(medians of 12 fresh processes each).  So when this module is imported
before numpy and numpy bundles scipy-openblas, it imports numpy with
OPENBLAS_NUM_THREADS=1 and then puts the environment back as it was,
keeping the count the environment asked for.  The package imports this
module first for that reason.

The first call of threads_for finds that library and sets the pool to one
thread.  Only a matrix at least WIDE wide runs with the starting count:
the asked count, grown to on the first such call, or else the count the
library started with (OPENBLAS_NUM_THREADS caps it).  Without that library
numpy starts as it would; without its thread symbols threads_for does
nothing.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import re
import sys
from contextlib import contextmanager

WIDE = 512
_LIBRARY = os.path.join(os.path.dirname(importlib.util.find_spec("numpy").origin),
                        os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
# OpenBLAS's own order: the first of these that atoi reads as positive wins
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS",
                     "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ATOI = re.compile(r"[ \t\n\v\f\r]*([+-]?[0-9]+)")
# (set_num_threads, starting count) once found, () when absent, None before
# the first call; the pool it describes is process-wide state too
_pool = None


def _asked_threads() -> int | None:
    """The thread count the environment asks OpenBLAS to start with, read as
    OpenBLAS reads it; 0 stands for the CPU count.  None where numpy is
    imported already or bundles no scipy-openblas: its start is not ours."""
    if "numpy" in sys.modules or not glob.glob(_LIBRARY):
        return None
    for name in _THREAD_VARIABLES:
        match = _ATOI.match(os.environ.get(name, ""))
        if match and int(match.group(1)) > 0:
            return int(match.group(1))
    return 0


def _import_numpy_on_one_thread() -> int | None:
    """Import numpy with its OpenBLAS started on one thread; the asked count."""
    asked = _asked_threads()
    if asked is None:
        return None
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (loads OpenBLAS, which reads the variable once)
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    return asked


_asked = _import_numpy_on_one_thread()


def _find_pool():
    for path in sorted(glob.glob(_LIBRARY)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            procs = lib.scipy_openblas_get_num_procs64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        procs.argtypes, procs.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        # OpenBLAS caps the asked count at the CPU count when it starts
        start = get() if _asked is None else min(_asked or procs(), procs())
        set_threads(1)
        return set_threads, start
    return ()


@contextmanager
def threads_for(width: int):
    """Run the body with the starting thread count if width >= WIDE, else with one thread."""
    global _pool
    if _pool is None:
        _pool = _find_pool()
    if not _pool or width < WIDE or _pool[1] == 1:
        yield
        return
    set_threads, start = _pool
    set_threads(start)
    try:
        yield
    finally:
        set_threads(1)
