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

So the first call of threads_for finds the OpenBLAS that numpy bundles,
reads the thread count it started with (OPENBLAS_NUM_THREADS caps it)
and sets the pool to one thread; only a matrix at least WIDE wide runs
with the starting count.  Without that library or its thread symbols
threads_for does nothing.  Importing this module touches no library.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy as np

WIDE = 512
_LIBRARY = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                        "libscipy_openblas64_*.so")
# (set_num_threads, starting count) once found, () when absent, None before
# the first call; the pool it describes is process-wide state too
_pool = None


def _find_pool():
    for path in sorted(glob.glob(_LIBRARY)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        start = get()
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
