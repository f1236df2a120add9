"""Benchmark workloads: seeded configs and the correctness gates on outputs.

Every workload is one heisenring subcommand.  Its config is generated from
the benchmark seed and passed with --config; only --config, --format and
--out are ever given on the command line (no --threads, no --seed on
sweep/threshold, no sweep-config "seed" key), so the benchmark keeps
running when those knobs are deleted.

A gate counts operations: one sweep row, one threshold solve, or one
verify check.  An operation fails when its output is missing, does not
parse strictly, or breaks the workload's tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

ROUTE_TOL = 1e-9          # cross-route agreement, never loosened
THRESHOLD_TOL = 1e-7      # relative, on t_c / J and on u_of_n - 1
# t_c / J of the isotropic antiferromagnetic N = 14 ring, from the
# threshold subcommand at J = 1 (bisection width 1e-8 relative)
T_C_OVER_J_N14 = 3.1804914921522141


@dataclass
class Outcome:
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str
    fmt: str | None
    make_config: Callable[[random.Random], dict]
    check: Callable[[dict, str, int], Outcome]

    def cli_args(self, config_path: str, out_path: str) -> list[str]:
        args = [self.subcommand, "--config", config_path, "--out", out_path]
        if self.fmt is not None:
            args += ["--format", self.fmt]
        return args


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def log_grid(start: float, stop: float, count: int) -> list[float]:
    ratio = stop / start
    return [start * ratio ** (k / (count - 1)) for k in range(count)]


def _csv_cell(cell: str):
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    return float(cell)


# ---------------------------------------------------------------------------
# sweep

def _sweep_config(rng: random.Random, n_sites: int, delta: float, field_b: float,
                  count: int) -> dict:
    return {
        "model": {"n_sites": n_sites, "j": round(rng.uniform(0.5, 2.0), 6),
                  "delta": delta, "field_b": field_b},
        "temperatures": {"start": 0.05, "stop": 20.0, "count": count,
                         "spacing": "log"},
    }


def _row_ok(row: dict, t_expected: float) -> bool:
    t = row.get("T")
    if not isinstance(t, float) or abs(t - t_expected) > 1e-12 * t_expected:
        return False
    for value in row.values():
        if isinstance(value, float) and not math.isfinite(value):
            return False
    spread = row.get("max_route_disagreement")
    return isinstance(spread, float) and 0.0 <= spread <= ROUTE_TOL


def _check_rows(config: dict, rows: list[dict] | None, code: int, error: str = "") -> Outcome:
    temps = config["temperatures"]
    grid = log_grid(temps["start"], temps["stop"], temps["count"])
    if code != 0 or rows is None:
        return Outcome(len(grid), len(grid), {"exit_code": code, "error": error})
    good = sum(1 for row, t in zip(rows, grid) if _row_ok(row, t))
    failed = len(grid) - good + max(0, len(rows) - len(grid))
    worst = max((r.get("max_route_disagreement") or 0.0 for r in rows
                 if isinstance(r.get("max_route_disagreement"), float)), default=None)
    return Outcome(len(grid), failed, {"exit_code": code, "rows": len(rows),
                                       "expected_rows": len(grid),
                                       "worst_route_disagreement": worst})


def check_sweep_json(config: dict, text: str, code: int) -> Outcome:
    try:
        doc = strict_json(text)
        columns = doc["columns"]
        rows = [dict(zip(columns, row, strict=True)) for row in doc["rows"]]
    except (ValueError, KeyError, TypeError) as exc:
        return _check_rows(config, None, code, f"output rejected: {exc}")
    # %.17g prints integer-valued floats without a point; they are still floats
    for row in rows:
        for key, value in row.items():
            if isinstance(value, int) and not isinstance(value, bool):
                row[key] = float(value)
    return _check_rows(config, rows, code)


def check_sweep_csv(config: dict, text: str, code: int) -> Outcome:
    try:
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        rows = [dict(zip(header, map(_csv_cell, line), strict=True)) for line in reader]
    except (ValueError, StopIteration, csv.Error) as exc:
        return _check_rows(config, None, code, f"output rejected: {exc}")
    return _check_rows(config, rows, code)


# ---------------------------------------------------------------------------
# threshold

def _threshold_config(rng: random.Random) -> dict:
    return {"model": {"n_sites": 14, "j": round(rng.uniform(0.5, 2.0), 6)}}


def check_threshold(config: dict, text: str, code: int) -> Outcome:
    j = config["model"]["j"]
    detail = {"exit_code": code}
    try:
        doc = strict_json(text)
        ratio = doc["t_c"] / j
        u_of_n = doc["u_of_n"]
        detail.update(status=doc["status"], t_c_over_j=ratio, u_of_n=u_of_n)
        ok = (code == 0 and doc["status"] == "found"
              and abs(ratio - T_C_OVER_J_N14) <= THRESHOLD_TOL * T_C_OVER_J_N14
              and abs(u_of_n - 1.0) <= THRESHOLD_TOL)
    except (ValueError, KeyError, TypeError) as exc:
        detail["error"] = f"output rejected: {exc}"
        ok = False
    return Outcome(1, 0 if ok else 1, detail)


# ---------------------------------------------------------------------------
# verify

_CHECK_LINE = re.compile(r"^(PASS|FAIL) ([A-Za-z0-9_]+):")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def _verify_config(rng: random.Random) -> dict:
    # the default grid; only the frame-sampling seed varies
    return {"seed": rng.randrange(1 << 31)}


def check_verify(config: dict, text: str, code: int) -> Outcome:
    fails: dict[str, int] = {}
    checks = 0
    summary = None
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks += 1
            if m.group(1) == "FAIL":
                fails[m.group(2)] = fails.get(m.group(2), 0) + 1
            continue
        m = _SUMMARY.match(line.strip())
        if m:
            summary = (int(m.group(1)), int(m.group(2)))
    failed = sum(fails.values())
    consistent = summary == (checks - failed, checks)
    if checks == 0:
        checks = failed = 1
    elif failed == 0 and (code != 0 or not consistent):
        failed = 1
    return Outcome(checks, failed, {"exit_code": code, "fail_lines": fails,
                                    "summary": summary})


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep_small",
        "N=6 with 3000 temperatures: the per-row 4x4 layer dominates; JSON output",
        "sweep", "json",
        lambda rng: _sweep_config(rng, 6, 1.0, 0.0, 3000),
        check_sweep_json),
    Workload(
        "sweep_large",
        "N=11 with anisotropy and field, 40 temperatures: the O(4^N) pair RDM over dense eigenvectors dominates; CSV output",
        "sweep", "csv",
        lambda rng: _sweep_config(rng, 11, 0.5, 0.2, 40),
        check_sweep_csv),
    Workload(
        "threshold_n14",
        "isotropic N=14 threshold: values-only sector eigvalsh dominates; guards that path's time and RSS",
        "threshold", "json",
        _threshold_config,
        check_threshold),
    Workload(
        "verify_default",
        "verify on the default grid: the dense oracles (kron_at, full eigvalsh, Gibbs matrix) dominate",
        "verify", None,
        _verify_config,
        check_verify),
)}
