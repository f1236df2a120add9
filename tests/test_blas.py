import _ctypes
import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heisenring
from heisenring import ModelSpec, _blas, decompose, diagonalize_full

SRC = str(Path(heisenring.__file__).resolve().parent.parent)


def _thread_count():
    """The current OpenBLAS thread count, read through the library numpy bundles."""
    paths = sorted(glob.glob(_blas._LIBRARY))
    if not paths:
        pytest.skip("numpy bundles no scipy-openblas library")
    try:
        get = ctypes.CDLL(paths[0]).scipy_openblas_get_num_threads64_
    except AttributeError:
        pytest.skip("the bundled OpenBLAS has no thread-count symbol")
    get.argtypes, get.restype = [], ctypes.c_int
    return get


def _run(args, threads):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=str(threads))
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_eigh_threads_follow_block_width(monkeypatch):
    get = _thread_count()
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append((a.shape[0], get()))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rng = np.random.default_rng(0)
    decompose(ModelSpec.uniform(8, 1.0, 0.5, 0.3))
    decompose(ModelSpec.uniform(10, 1.0), pair=(1, 3))
    for width in (64, _blas.WIDE):
        a = rng.standard_normal((width, width))
        diagonalize_full(a + a.T)
    start = _blas._pool[1]
    assert seen[-1] == (_blas.WIDE, start)
    assert all(threads == 1 for width, threads in seen[:-1])
    assert max(width for width, _ in seen[:-1]) < _blas.WIDE
    assert get() == 1


def test_wide_call_restores_one_thread_after_exception(monkeypatch):
    calls = []
    monkeypatch.setattr(_blas, "_pool", (calls.append, 2))
    with _blas.threads_for(_blas.WIDE - 1):
        pass
    assert calls == []
    with pytest.raises(RuntimeError), _blas.threads_for(_blas.WIDE):
        assert calls == [2]
        raise RuntimeError("solve failed")
    assert calls == [2, 1]


def test_real_pool_restored_after_exception():
    get = _thread_count()
    with _blas.threads_for(1):
        pass
    with pytest.raises(np.linalg.LinAlgError), _blas.threads_for(_blas.WIDE):
        assert get() == _blas._pool[1]
        raise np.linalg.LinAlgError("did not converge")
    assert get() == 1


@pytest.mark.parametrize("library", [
    "/nonexistent/libscipy_openblas64_*.so",  # no library
    __file__,                                 # not a shared library
    _ctypes.__file__,                         # a shared library without the symbols
], ids=["missing", "not-a-library", "no-symbol"])
def test_missing_library_or_symbol_is_a_no_op(monkeypatch, library):
    monkeypatch.setattr(_blas, "_LIBRARY", library)
    monkeypatch.setattr(_blas, "_pool", None)
    for width in (1, _blas.WIDE):
        with _blas.threads_for(width):
            pass
    assert _blas._pool == ()
    a = np.diag([2.0, 1.0])
    assert diagonalize_full(a).eigenvalues.tolist() == [1.0, 2.0]


def test_import_leaves_the_pool_alone():
    _thread_count()
    code = (
        "import ctypes, sys\n"
        "import numpy\n"
        "get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
        "get.restype = ctypes.c_int\n"
        "before = get()\n"
        "import heisenring.cli\n"
        "from heisenring import _blas\n"
        "print(before, get(), _blas._pool is None)\n"
    )
    library = sorted(glob.glob(_blas._LIBRARY))[0]
    before, after, untouched = _run(["-c", code, library], threads=2).split()
    assert before == after and untouched == "True"


def test_verify_report_same_at_one_and_two_threads(tmp_path):
    _thread_count()
    # every matrix of an N = 8 grid is at most 256 wide, so every solve and
    # product runs on one thread at either setting; at two threads they
    # would change residuals in their last digits
    config = tmp_path / "grid.json"
    config.write_text('{"n_values": [8], "deltas": [1.0], "fields": [0.5],'
                      ' "j_values": [1.0, -1.0]}')
    args = ["-m", "heisenring", "verify", "--config", str(config)]
    one, two = (_run(args, threads) for threads in (1, 2))
    assert "field_flip_spectrum" in one
    assert one == two
