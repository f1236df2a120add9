"""Diff the sweep, spectrum and verify outputs of two source trees.

    python scripts/compare_sweeps.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts.  Both
trees run the same `sweep` configs, in CSV and in JSON: the benchmark's
`sweep_large` and `sweep_small` configs at seeds 1 and 2, two
general-coupling rings, one S_z-conserving and one S_z-breaking,
ROUTE_SWEEPS, which reach the routes and rows the others skip, and
BLOCK_SWEEPS, long grids that a sweep cuts into many row blocks on each
of its routes.  Every output must be byte-identical; where it is not,
the cells that differ are shown, and a cell is bit-identical when it has
the same 17-significant-digit text, the same boolean, or the same empty
cell.

Both trees also run `spectrum` (JSON) on SPECTRUM_MODELS: uniform rings
with N = 8, 11, 12 (the XX ring), 13 and 14, the small rings N = 2, 5
and 6, whose blocks lie mostly at momenta 0 and N/2, and the two
general-coupling rings.  There the sorted energies of each S_z label
must agree within SPECTRUM_TOL and the ground degeneracy must be
identical; the row order among degenerate levels of different labels may
differ.  The S_z-breaking ring has no
labels, so its whole spectrum is one group.

Both trees also run `threshold` (JSON) on the isotropic J = 1 rings of
THRESHOLD_SIZES.  Status, t_c, bracket and iterations must be identical
text; the worst u_of_n difference is printed.

Both trees also run `verify` on its default grid and on two small grids
off the defaults (VERIFY_CONFIGS); the text reports and the exit codes
must be identical.  A report that differs is shown as a unified diff, cut at
VERIFY_DIFF_LINES lines.

Both trees also run DEMOS, demos 01 to 04 of their own `demos`
directory (the directory beside BASE_SRC or HEAD_SRC), each with its own
`src` on PYTHONPATH; their stdout must be identical, and a difference is
shown as a diff cut the same way.  Demo 05 prints wall times, so it is
not compared.

Every run is stopped after RUN_TIMEOUT_S seconds, ample for the default
verify grid and the N = 14 runs; a run that hits it counts as a
difference, named with its command and tree, so a tree that never
returns cannot stall the diff.

Every run pins OPENBLAS_NUM_THREADS to BLAS_THREADS.  The program runs
every matrix narrower than heisenring._blas.WIDE (512) on one BLAS thread
at any setting, so one tree's outputs differ between thread counts only
where a matrix is at least that wide: verify grids from N = 9, S_z
sectors from N = 12 and parity blocks from N = 10, whose results can move
in their last digits.  The pin keeps those comparable too.

Prints the first differing cells of each run and, per column, the worst
numeric difference |a - b| and the worst relative difference
|a - b| / max(|a|, |b|, REL_FLOOR), and exits 1 on any difference.
"""

from __future__ import annotations

import csv
import difflib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402


def general_model(conserves_sz: bool, n: int = 8) -> dict:
    """Random all-pair couplings on n sites, with jy = jx when conserves_sz."""
    rng = random.Random(7)
    jx, jy, jz = ([[0.0] * n for _ in range(n)] for _ in range(3))
    for i in range(n):
        for k in range(i + 1, n):
            for m in (jx, jy, jz):
                m[i][k] = m[k][i] = round(rng.uniform(-1.0, 1.0), 6)
    if conserves_sz:
        jy = jx
    return {"jx": jx, "jy": jy, "jz": jz, "field_b": 0.3}


SPECTRUM_TOL = 1e-10
# sweep cells are pair elements, correlations and concurrences of order
# 0.01 to 1, or sums of them; a cell below the floor (a concurrence near
# its threshold, a magnetization near zero) is a difference of larger
# terms, so its rounding is judged at the floor's scale
REL_FLOOR = 1e-2
SPECTRUM_MODELS = {
    "spectrum-n8": {"n_sites": 8, "j": -1.0, "delta": 0.5, "field_b": 0.3},
    "spectrum-n11": {"n_sites": 11, "j": 1.0, "delta": 0.5, "field_b": 0.2},
    "spectrum-n14": {"n_sites": 14, "j": 1.0},
    # odd N: no S_z sector is its own spin flip
    "spectrum-n13": {"n_sites": 13, "j": -0.8, "delta": 1.3, "field_b": 0.25},
    # even N in a field: sector k = 7 is its own flip, the others shift by B
    "spectrum-n14-field": {"n_sites": 14, "j": 1.0, "delta": 0.5, "field_b": 0.3},
    # the XX ring (delta = 0): highly degenerate, so a wrong phase in the
    # real momentum basis would split or shift its levels
    "spectrum-n12-xx": {"n_sites": 12, "j": 1.0, "delta": 0.0},
    # small rings, whose blocks lie mostly at m = 0 and 2m = N: the doubly
    # counted bond, odd N, a ferromagnet, and J = 0, which has no hops
    "spectrum-n2": {"n_sites": 2, "j": 1.0, "field_b": 0.7},
    "spectrum-n5": {"n_sites": 5, "j": 1.0, "delta": 0.5, "field_b": 0.3},
    "spectrum-n6-ferro": {"n_sites": 6, "j": -1.0, "delta": 2.0, "field_b": 0.2},
    "spectrum-n6-j0": {"n_sites": 6, "j": 0.0, "field_b": 0.4},
    # general couplings with jx = jy: values-only blocks over trivial orbits
    "spectrum-general-sz-n8": general_model(conserves_sz=True),
    # jx != jy: the two spin-flip parity blocks, no S_z labels
    "spectrum-general-n8": general_model(conserves_sz=False),
}
THRESHOLD_SIZES = [*range(2, 13), 14]

LOG_GRID = {"start": 0.05, "stop": 20.0, "count": 40, "spacing": "log"}
ROUTE_SWEEPS = {
    # zero-field anisotropic energy route
    "delta0.5-b0": {"model": {"n_sites": 8, "j": 1.3, "delta": 0.5},
                    "temperatures": LOG_GRID},
    # isotropic route in a field
    "xxx-b0.3": {"model": {"n_sites": 8, "j": 1.0, "field_b": 0.3},
                 "temperatures": LOG_GRID},
    # ferromagnetic branch of the isotropic route
    "j-1": {"model": {"n_sites": 8, "j": -1.0}, "temperatures": LOG_GRID},
    # T = 0 rows, on a ring with a degenerate ground level
    "linear-from-t0": {"model": {"n_sites": 7, "j": 1.0},
                       "temperatures": {"start": 0.0, "stop": 3.0, "count": 40}},
    # the doubly counted bond
    "n2": {"model": {"n_sites": 2, "j": 1.0}, "temperatures": LOG_GRID},
    # a non-adjacent pair
    "pair-1-3": {"model": {"n_sites": 8, "j": 1.0, "delta": 0.5, "field_b": 0.2},
                 "temperatures": LOG_GRID, "pair": [1, 3]},
    # the wrap bond (N, 1), which keeps the energy route: a bond test that
    # only accepts |i - j| = 1 would drop C_energy here
    "pair-8-1": {"model": {"n_sites": 8, "j": 1.0}, "temperatures": LOG_GRID,
                 "pair": [8, 1]},
    # J = 0 from T = 0: free spins in a field, where the bond's z is 0
    "j0-b0.4": {"model": {"n_sites": 5, "j": 0.0, "field_b": 0.4},
                "temperatures": {"start": 0.0, "stop": 3.0, "count": 40}},
    # the pair mode at the size cap: 57 momentum blocks, widest 246
    "bond-n14": {"model": {"n_sites": 14, "j": 1.0}, "temperatures": LOG_GRID},
    # the pair mode at odd N in a field, on the wrap bond
    "bond-n13-wrap": {"model": {"n_sites": 13, "j": 1.0, "delta": 0.5, "field_b": 0.3},
                      "temperatures": LOG_GRID, "pair": [13, 1]},
    # distance r = N/2, where the N pairs at distance r count each pair twice
    "pair-n10-1-6": {"model": {"n_sites": 10, "j": 1.0, "delta": 0.5, "field_b": 0.2},
                     "temperatures": LOG_GRID, "pair": [1, 6]},
}
# sweep.BLOCK_BYTES (1 MiB) cuts a grid into blocks of 2^17 / 2^N
# temperatures: 32 at N = 12 and 128 at N = 10
BLOCK_SWEEPS = {
    # the pair mode of a uniform ring: 256 blocks
    "blocks-pair-n12": {"model": {"n_sites": 12, "j": 1.0},
                        "temperatures": {"start": 0.05, "stop": 20.0, "count": 8192,
                                         "spacing": "log"}},
    # S_z-sector eigenvectors and their pair table, from T = 0: 8 blocks
    "blocks-general-sz-n10": {"model": general_model(conserves_sz=True, n=10),
                              "temperatures": {"start": 0.0, "stop": 5.0, "count": 1000},
                              "pair": [2, 5]},
    # parity-block eigenvectors, which M is read from too: 8 blocks
    "blocks-general-n10": {"model": general_model(conserves_sz=False, n=10),
                           "temperatures": {"start": 0.0, "stop": 5.0, "count": 1000},
                           "pair": [2, 5]},
}

VERIFY_DIFF_LINES = 20
# the demos compared, by file-name prefix; 05_sector_scaling prints wall times
DEMOS = ("01_", "02_", "03_", "04_")
BLAS_THREADS = "1"
RUN_TIMEOUT_S = 300
VERIFY_CONFIGS = {
    "verify-default": {},
    "verify-small": {"n_values": [2, 5, 8], "deltas": [0.5], "fields": [0.3],
                     "j_values": [1.3, -0.7]},
    # a T = 0 row; no J = 1 ring, so the threshold and zero-temperature
    # sections decompose their own; N on both sides of the full-space
    # correlation cutoff (N <= 5); a seed off the default, so the states
    # this grid samples meet another draw of random frames
    "verify-t0": {"n_values": [3, 4, 6, 7], "deltas": [1.0, 0.0], "fields": [0.0, 0.4],
                  "j_values": [0.8, -1.5],
                  "temperatures": {"start": 0.0, "stop": 2.5, "count": 5}, "seed": 4242},
}


def general_config(conserves_sz: bool) -> dict:
    return {"model": general_model(conserves_sz),
            "temperatures": {"start": 0.05, "stop": 20.0, "count": 40, "spacing": "log"},
            "pair": [2, 5]}


def configs() -> dict[str, dict]:
    """name -> sweep config."""
    out = {}
    for name in ("sweep_large", "sweep_small"):
        for seed in (1, 2):
            out[f"{name}-seed{seed}"] = WORKLOADS[name].make_config(
                random.Random(f"{name}:{seed}"))
    out["general-sz-n8"] = general_config(conserves_sz=True)
    out["general-n8"] = general_config(conserves_sz=False)
    out.update(ROUTE_SWEEPS)
    out.update(BLOCK_SWEEPS)
    return out


class RunTimeout(Exception):
    """A CLI run that did not finish within RUN_TIMEOUT_S."""


def python_run(src: str, *args: str) -> subprocess.CompletedProcess:
    """`python *args` with `src` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    try:
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunTimeout(f"{' '.join(args)} under {src} "
                         f"timed out after {RUN_TIMEOUT_S} s") from None


def cli_run(src: str, command: str, *args: str) -> subprocess.CompletedProcess:
    return python_run(src, "-m", "heisenring", command, *args)


def cli_stdout(src: str, command: str, *args: str) -> str:
    proc = cli_run(src, command, *args)
    proc.check_returncode()
    return proc.stdout


def run(src: str, config: Path, fmt: str) -> str:
    return cli_stdout(src, "sweep", "--config", str(config), "--format", fmt)


def cells(text: str, fmt: str) -> list[dict[str, str]]:
    """Rows as column -> cell text, in the CSV spelling for both formats."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    raw = json.loads(text, parse_float=str, parse_int=str)
    spell = {None: "", True: "true", False: "false"}
    return [{c: spell[v] if v is None or isinstance(v, bool) else v
             for c, v in zip(raw["columns"], row)} for row in raw["rows"]]


def compare(base: list[dict], head: list[dict], worst: dict[str, float],
            worst_rel: dict[str, float]) -> list[str]:
    problems = []
    if len(base) != len(head):
        return [f"row count {len(base)} != {len(head)}"]
    for r, (a, b) in enumerate(zip(base, head)):
        if list(a) != list(b):
            return [f"columns differ: {list(a)} != {list(b)}"]
        for col in a:
            x, y = a[col], b[col]
            if x == y:
                continue
            problems.append(f"row {r} {col}: {x!r} != {y!r}")
            if "" not in (x, y) and not {x, y} & {"true", "false"}:
                a_val, b_val = float(x), float(y)
                diff = abs(a_val - b_val)
                worst[col] = max(worst.get(col, 0.0), diff)
                worst_rel[col] = max(worst_rel.get(col, 0.0),
                                     diff / max(abs(a_val), abs(b_val), REL_FLOOR))
    return problems


def compare_sweep(base: str, head: str, fmt: str, worst: dict[str, float],
                  worst_rel: dict[str, float]) -> list[str]:
    """Nothing when the two outputs are byte-identical, else the cells that differ."""
    if base == head:
        return []
    return (compare(cells(base, fmt), cells(head, fmt), worst, worst_rel)
            or ["the same cells in different bytes"])


def levels(src: str, config: Path) -> tuple[int, dict[float, list[float]]]:
    """(ground degeneracy, S_z label -> sorted energies) from `spectrum` JSON."""
    doc = json.loads(cli_stdout(src, "spectrum", "--config", str(config), "--format", "json"))
    by_label: dict[float, list[float]] = {}
    for _, energy, s_z in doc["rows"]:
        by_label.setdefault(s_z, []).append(energy)
    return doc["ground_degeneracy"], {s: sorted(e) for s, e in by_label.items()}


def compare_spectra(base, head, worst: dict[str, float]) -> list[str]:
    (g_base, base), (g_head, head) = base, head
    problems = []
    if g_base != g_head:
        problems.append(f"ground_degeneracy {g_base} != {g_head}")
    if {s: len(e) for s, e in base.items()} != {s: len(e) for s, e in head.items()}:
        return problems + ["levels per S_z label differ"]
    for s_z in base:
        diff = max(abs(a - b) for a, b in zip(base[s_z], head[s_z]))
        worst["energy"] = max(worst.get("energy", 0.0), diff)
        if diff > SPECTRUM_TOL:
            problems.append(f"s_z={s_z}: energies differ by {diff:.3e}")
    return problems


def compare_thresholds(src_pair, config: Path, worst: dict[str, float]) -> list[str]:
    base, head = (json.loads(cli_stdout(src, "threshold", "--config", str(config),
                                        "--format", "json"), parse_float=str)
                  for src in src_pair)
    problems = [f"{key}: {base[key]!r} != {head[key]!r}"
                for key in ("status", "t_c", "bracket", "iterations")
                if base[key] != head[key]]
    if None not in (base["u_of_n"], head["u_of_n"]):
        diff = abs(float(base["u_of_n"]) - float(head["u_of_n"]))
        worst["u_of_n"] = max(worst.get("u_of_n", 0.0), diff)
    elif base["u_of_n"] != head["u_of_n"]:
        problems.append(f"u_of_n: {base['u_of_n']!r} != {head['u_of_n']!r}")
    return problems


def text_diff(name: str, base: str, head: str) -> list[str]:
    """The unified diff of two outputs, cut at VERIFY_DIFF_LINES lines."""
    diff = list(difflib.unified_diff(base.splitlines(), head.splitlines(),
                                     f"{name} base", f"{name} head", lineterm=""))
    if len(diff) > VERIFY_DIFF_LINES:
        return diff[:VERIFY_DIFF_LINES] + [
            f"... {len(diff) - VERIFY_DIFF_LINES} more diff lines"]
    return diff


def verify_problems(name: str, path: Path, base_src: str, head_src: str) -> list[str]:
    """The exit codes and the cut unified diff of two verify reports."""
    # a failing check (exit 1) is output to compare, not an error
    base, head = (cli_run(src, "verify", "--config", str(path))
                  for src in (base_src, head_src))
    problems = []
    if base.returncode != head.returncode:
        problems.append(f"exit code {base.returncode} != {head.returncode}")
    return problems + text_diff(name, base.stdout, head.stdout)


def demo_stdout(src: str, prefix: str) -> str:
    """stdout of the demo named `prefix`* in the demos directory beside `src`."""
    (path,) = (Path(src).resolve().parent / "demos").glob(f"{prefix}*.py")
    proc = python_run(src, str(path))
    proc.check_returncode()
    return proc.stdout


def demo_problems(prefix: str, base_src: str, head_src: str) -> list[str]:
    return text_diff(f"demo {prefix}", demo_stdout(base_src, prefix),
                     demo_stdout(head_src, prefix))


def check(name: str, problems_of, limit: int | None = None) -> int:
    """Print the run's status line and up to `limit` of its problems; return their count.

    A run that times out is one problem, named by the timeout.
    """
    try:
        problems = problems_of()
    except RunTimeout as exc:
        problems = [str(exc)]
    print(f"{name}: {'ok' if not problems else f'{len(problems)} problems'}")
    for line in problems[:limit]:
        print(f"  {line}")
    return len(problems)


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_src, head_src = sys.argv[1:]
    worst: dict[str, float] = {}
    worst_rel: dict[str, float] = {}
    failures = 0
    print(f"OPENBLAS_NUM_THREADS={BLAS_THREADS}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in configs().items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            for fmt in ("csv", "json"):
                failures += check(f"{name} {fmt}", lambda: compare_sweep(
                    run(base_src, path, fmt), run(head_src, path, fmt), fmt, worst,
                    worst_rel), limit=10)
        for name, model in SPECTRUM_MODELS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"model": model}))
            failures += check(name, lambda: compare_spectra(
                levels(base_src, path), levels(head_src, path), worst))
        for n in THRESHOLD_SIZES:
            path = Path(tmp) / f"threshold-n{n}.json"
            path.write_text(json.dumps({"model": {"n_sites": n, "j": 1.0}}))
            failures += check(f"threshold-n{n}",
                              lambda: compare_thresholds((base_src, head_src), path, worst))
        for name, doc in VERIFY_CONFIGS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            failures += check(name, lambda: verify_problems(name, path, base_src, head_src))
    for prefix in DEMOS:
        failures += check(f"demo {prefix}*", lambda: demo_problems(prefix, base_src, head_src))
    for col, diff in sorted(worst.items(), key=lambda kv: -kv[1]):
        print(f"worst |diff| {col}: {diff:.3e}")
    for col, rel in sorted(worst_rel.items(), key=lambda kv: -kv[1]):
        print(f"worst relative diff {col}: {rel:.3e} (floor {REL_FLOOR:g})")
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
