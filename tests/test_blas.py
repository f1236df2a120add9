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


def _run(args, **variables):
    """Run python with args; the BLAS thread variables are only those given."""
    env = {name: value for name, value in os.environ.items()
           if name not in _blas._THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=SRC)
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
    # were numpy not imported yet, only a file at the pattern takes its start over
    monkeypatch.delitem(sys.modules, "numpy")
    assert (_blas._asked_threads() is None) == (not glob.glob(library))


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
    before, after, untouched = _run(["-c", code, library],
                                    OPENBLAS_NUM_THREADS="2").split()
    assert before == after and untouched == "True"


_START = (
    "import ctypes, sys\n"
    "if sys.argv[2] == 'numpy first':\n"
    "    import numpy\n"
    "from heisenring import _blas\n"
    "get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
    "get.restype = ctypes.c_int\n"
    "started = get()\n"
    "with _blas.threads_for(_blas.WIDE):\n"
    "    print(started, get())\n"
)


@pytest.mark.parametrize("variables", [
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "3"},  # more than the CPUs of a 2-CPU machine
    {"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"},
    {"GOTO_NUM_THREADS": "1"},
    {},
], ids=["2", "3", "abc-omp1", "0-omp2", "goto1", "unset"])
def test_first_wide_call_grows_to_the_librarys_own_count(variables):
    _thread_count()
    library = sorted(glob.glob(_blas._LIBRARY))[0]
    ours = _run(["-c", _START, library, "heisenring first"], **variables).split()
    own = _run(["-c", _START, library, "numpy first"], **variables).split()
    assert ours[0] == "1"
    assert ours[1] == own[0] == own[1]


@pytest.mark.parametrize("variables", [{"OPENBLAS_NUM_THREADS": "2"}, {}],
                         ids=["2", "unset"])
def test_fresh_import_starts_one_thread_and_keeps_the_environment(variables):
    _thread_count()
    code = (
        "import ctypes, os, sys\n"
        "before = dict(os.environ)\n"
        "import heisenring.cli\n"
        "import numpy as np\n"
        "from heisenring import _blas, diagonalize_full\n"
        "tasks = len(os.listdir('/proc/self/task'))\n"
        "get = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_\n"
        "get.restype = ctypes.c_int\n"
        "counts = [get()]\n"
        "with _blas.threads_for(_blas.WIDE):\n"
        "    counts.append(get())\n"
        "counts.append(get())\n"
        "eigh = np.linalg.eigh\n"
        "def spy(a, *args, **kwargs):\n"
        "    counts.append(get())\n"
        "    return eigh(a, *args, **kwargs)\n"
        "np.linalg.eigh = spy\n"
        "a = np.random.default_rng(0).standard_normal((1024, 1024))\n"
        "diagonalize_full(a + a.T)\n"
        "print(dict(os.environ) == before, tasks, *counts)\n"
    )
    library = sorted(glob.glob(_blas._LIBRARY))[0]
    same, tasks, imported, inside, after, solve = _run(["-c", code, library],
                                                       **variables).split()
    # no OpenBLAS worker thread runs until the first wide matrix
    assert same == "True" and tasks == "1"
    assert imported == after == "1"
    assert inside == solve == variables.get("OPENBLAS_NUM_THREADS", inside)


def test_verify_report_same_at_one_and_two_threads(tmp_path):
    _thread_count()
    # every matrix of an N = 8 grid is at most 256 wide, so every solve and
    # product runs on one thread at either setting; at two threads they
    # would change residuals in their last digits
    config = tmp_path / "grid.json"
    config.write_text('{"n_values": [8], "deltas": [1.0], "fields": [0.5],'
                      ' "j_values": [1.0, -1.0]}')
    args = ["-m", "heisenring", "verify", "--config", str(config)]
    one, two = (_run(args, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert "field_flip_spectrum" in one
    assert one == two
