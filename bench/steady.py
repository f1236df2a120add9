"""Steadiness check: run the benchmark on several seeds and report spreads.

    python3 bench/steady.py [--seeds 10] [--first-seed 1] [--workloads a,b]

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
in BENCHMARK.json.  It also prints every run's slowest over fastest process
and, per workload, the processes slower than STALL_RATIO times the median
of all its processes, so that stalls show instead of hiding in medians.
Results go to .bench_runs/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STALL_RATIO = 1.5   # a process this much slower than the workload's median is a stall


def run_once(config: dict, workload: str, seed: int) -> dict:
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace0"
                         / "result.json").read_text())
    return {"result": result, "run_s": elapsed,
            "walls": [sample["wall_s"] for sample in record["samples"]]}


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in config["workloads"]]
    report = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = run_once(config, name, seed)
            runs.append(run)
            walls = run["walls"]
            print(f"{name} seed {seed}: {run['run_s']:.1f} s, {len(walls)} processes, "
                  f"correct={run['result']['correct']}, slowest/fastest="
                  f"{max(walls) / min(walls):.2f}, "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in run["result"]["metrics"].items()),
                  flush=True)
        rows = {}
        for metric in config["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            med, share = spread(values)
            rows[metric["name"]] = {"median": med, "iqr_share": share,
                                    "bound": metric["bound"], "values": values}
            print(f"  {name} {metric['name']}: median {med:.5g}, IQR/median "
                  f"{share:.4f}, bound {metric['bound']} "
                  f"({'ok' if share <= metric['bound'] / 3 else 'WIDE'})", flush=True)
        walls = [w for r in runs for w in r["walls"]]
        typical = statistics.median(walls)
        stalls = [w for w in walls if w > STALL_RATIO * typical]
        print(f"  {name} processes: {len(walls)}, median wall {typical:.4g} s, slowest "
              f"{max(walls) / typical:.2f}x median, {len(stalls)} over {STALL_RATIO}x",
              flush=True)
        report[name] = {"metrics": rows, "runs": runs, "stalls": stalls}
    out = ROOT / ".bench_runs" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
