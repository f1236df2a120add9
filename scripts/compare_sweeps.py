"""Diff the sweep outputs of two source trees, column by column.

    python scripts/compare_sweeps.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the `src` directories of two checkouts.  Both
trees run the same `sweep` configs, in CSV and in JSON: the benchmark's
`sweep_large` and `sweep_small` configs at seeds 1 and 2, plus two
general-coupling rings, one S_z-conserving and one S_z-breaking.  The rules:

* T, log_z, U, U_per_site and M must be bit-identical, except M on the
  S_z-breaking ring (see DENSE_EXACT);
* booleans and empty cells must be identical;
* every other float may differ by at most TOL absolute.

Prints the worst difference per column and exits 1 on any violation.
"""

from __future__ import annotations

import csv
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

EXACT = ("T", "log_z", "U", "U_per_site", "M")
# On the dense path M is read from the eigenvectors.  Squaring the real
# vectors directly can differ in the last bit from taking numpy's complex
# absolute value of a phase-fixed complex copy, as earlier trees did.
DENSE_EXACT = ("T", "log_z", "U", "U_per_site")
TOL = 1e-12


def general_config(conserves_sz: bool) -> dict:
    rng = random.Random(7)
    n = 8
    jx, jy, jz = ([[0.0] * n for _ in range(n)] for _ in range(3))
    for i in range(n):
        for k in range(i + 1, n):
            for m in (jx, jy, jz):
                m[i][k] = m[k][i] = round(rng.uniform(-1.0, 1.0), 6)
    if conserves_sz:
        jy = jx
    return {"model": {"jx": jx, "jy": jy, "jz": jz, "field_b": 0.3},
            "temperatures": {"start": 0.05, "stop": 20.0, "count": 40, "spacing": "log"},
            "pair": [2, 5]}


def configs() -> dict[str, tuple[dict, tuple[str, ...]]]:
    """name -> (sweep config, columns that must be bit-identical)."""
    out = {}
    for name in ("sweep_large", "sweep_small"):
        for seed in (1, 2):
            out[f"{name}-seed{seed}"] = (WORKLOADS[name].make_config(
                random.Random(f"{name}:{seed}")), EXACT)
    out["general-sz-n8"] = (general_config(conserves_sz=True), EXACT)
    out["general-n8"] = (general_config(conserves_sz=False), DENSE_EXACT)
    return out


def run(src: str, config: Path, fmt: str) -> list[dict[str, str]]:
    """Rows as column -> cell text, in the CSV spelling for both formats."""
    env = dict(os.environ, PYTHONPATH=src)
    text = subprocess.run([sys.executable, "-m", "heisenring", "sweep", "--config",
                           str(config), "--format", fmt],
                          env=env, check=True, capture_output=True, text=True).stdout
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    raw = json.loads(text, parse_float=str, parse_int=str)
    spell = {None: "", True: "true", False: "false"}
    return [{c: spell[v] if v is None or isinstance(v, bool) else v
             for c, v in zip(raw["columns"], row)} for row in raw["rows"]]


def compare(base: list[dict], head: list[dict], exact: tuple[str, ...],
            worst: dict[str, float]) -> list[str]:
    problems = []
    if len(base) != len(head):
        return [f"row count {len(base)} != {len(head)}"]
    for r, (a, b) in enumerate(zip(base, head)):
        if list(a) != list(b):
            return [f"columns differ: {list(a)} != {list(b)}"]
        for col in a:
            x, y = a[col], b[col]
            if col in exact or x in ("", "true", "false") or y in ("", "true", "false"):
                if x != y:
                    problems.append(f"row {r} {col}: {x!r} != {y!r}")
                continue
            diff = abs(float(x) - float(y))
            worst[col] = max(worst.get(col, 0.0), diff)
            if not diff <= TOL:
                problems.append(f"row {r} {col}: |{x} - {y}| = {diff:.3e}")
    return problems


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_src, head_src = sys.argv[1:]
    worst: dict[str, float] = {}
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (doc, exact) in configs().items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            for fmt in ("csv", "json"):
                problems = compare(run(base_src, path, fmt), run(head_src, path, fmt),
                                   exact, worst)
                failures += len(problems)
                print(f"{name} {fmt}: {'ok' if not problems else f'{len(problems)} problems'}")
                for line in problems[:10]:
                    print(f"  {line}")
    for col, diff in sorted(worst.items(), key=lambda kv: -kv[1]):
        print(f"worst |diff| {col}: {diff:.3e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
