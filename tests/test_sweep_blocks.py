"""A sweep works through its grid in row blocks (sweep.BLOCK_BYTES).

Every stage works row by row, so the bytes a sweep writes must not depend
on where the blocks are cut, and no stage may see more than one block.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heisenring import COLUMNS, sweep
from heisenring.cli import _write_out, main, parse_model, render_csv, render_json

SRC = Path(__file__).resolve().parents[1] / "src"


def _couplings(n, seed, conserves_sz):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        m = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        mats.append((m + m.T).tolist())
    if conserves_sz:
        mats[1] = mats[0]
    return dict(zip(("jx", "jy", "jz"), mats))


N_SITES = 6
# model and pair of each route through the sweep
CASES = {
    # the pair mode of decompose on a bond, with the field energy route
    "uniform": ({"n_sites": N_SITES, "j": 1.0, "field_b": 0.2}, [1, 2]),
    # jx = jy: S_z-sector eigenvectors and the pair table built from them
    "general-sz": ({**_couplings(N_SITES, 3, True), "field_b": 0.3}, [2, 5]),
    # jx != jy: parity-block eigenvectors, which M is read from as well
    "general-parity": ({**_couplings(N_SITES, 4, False), "field_b": 0.3}, [2, 5]),
}
# T = 0, then 22 temperatures above it
GRID = {"start": 0.0, "stop": 3.0, "count": 23}
# one row, a cut that leaves a short last block, and one block for all
BLOCK_ROWS = (1, 7, 40)


@pytest.fixture
def block_rows(monkeypatch):
    """set(rows) makes a block of N_SITES rings hold `rows` temperatures and
    returns the list of row counts that the sweep's thermo_grid calls get."""
    original = sweep.thermo_grid
    calls = []

    def spy(sd, temperatures):
        calls.append(len(temperatures))
        return original(sd, temperatures)

    monkeypatch.setattr(sweep, "thermo_grid", spy)

    def set_rows(rows):
        monkeypatch.setattr(sweep, "BLOCK_BYTES", rows * 8 * (1 << N_SITES))
        calls.clear()
        return calls

    return set_rows


@pytest.mark.parametrize("case", list(CASES))
def test_sweep_bytes_do_not_depend_on_the_block_size(tmp_path, capsys, block_rows, case):
    model, pair = CASES[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": model, "temperatures": GRID, "pair": pair}))
    spec = parse_model(model)
    temps = np.linspace(GRID["start"], GRID["stop"], GRID["count"])
    outputs, tables = set(), set()
    for rows in BLOCK_ROWS:
        calls = block_rows(rows)
        for fmt in ("csv", "json"):
            out = tmp_path / f"rows.{fmt}"
            args = ["sweep", "--config", str(cfg), "--format", fmt]
            assert main([*args, "--out", str(out)]) == 0
            assert main([*args, "--out", "stdout"]) == 0
            text = out.read_text()
            assert capsys.readouterr().out == text
            outputs.add((fmt, text))
        tables.add(str(sweep.run_sweep(spec, temps, tuple(pair))))
        # four CLI runs and one run_sweep, each cut into ceil(23 / rows) blocks
        assert max(calls) <= rows
        assert len(calls) == 5 * math.ceil(GRID["count"] / rows)
        assert sum(calls) == 5 * GRID["count"]
    assert len(outputs) == 2 and len(tables) == 1
    assert {fmt for fmt, _ in outputs} == {"csv", "json"}


@pytest.mark.parametrize("case", list(CASES))
def test_empty_grid_sweeps_to_the_header_alone(tmp_path, capsys, block_rows, case):
    model, pair = CASES[case]
    spec = parse_model(model)
    expected = {
        render_csv: ",".join(COLUMNS) + "\n",
        render_json: '{"columns": [' + ", ".join(json.dumps(c) for c in COLUMNS)
                     + '], "rows": []}\n',
    }
    out = tmp_path / "rows"
    for rows in BLOCK_ROWS:
        calls = block_rows(rows)
        for render, text in expected.items():
            for dest in (str(out), "stdout"):
                _write_out(render(COLUMNS, sweep.sweep_blocks(spec, [], tuple(pair))), dest)
            assert out.read_text() == capsys.readouterr().out == text
        assert calls == []
    assert all(values == [] for values in sweep.run_sweep(spec, [], tuple(pair)).values())


# a quarter of the 308 MB the same sweep peaked at while it formed one
# (8192, 4096) weight matrix; in row blocks it peaks near 35 MB
# (2 vCPU, numpy 2.4, OpenBLAS on 2 threads)
RSS_CEILING_MB = 77
# A child's ru_maxrss counts the memory of the process it was started from
# as well, here the whole test session, so a bare Python process starts
# the sweep and reports its exit code and ru_maxrss
MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_sweep_peak_memory_is_bounded(tmp_path, fmt):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"n_sites": 12, "j": 1.0},
        "temperatures": {"start": 0.05, "stop": 20.0, "count": 8192, "spacing": "log"},
    }))
    out = tmp_path / f"rows.{fmt}"
    measured = subprocess.run(
        [sys.executable, "-c", MEASURE, sys.executable, "-m", "heisenring", "sweep",
         "--config", str(cfg), "--format", fmt, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True)
    code, maxrss = map(int, measured.stdout.split())
    assert code == 0
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    peak_mb = maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert peak_mb <= RSS_CEILING_MB
    if fmt == "csv":
        assert out.read_text().count("\n") == 8193
    else:
        assert len(json.loads(out.read_text())["rows"]) == 8192
