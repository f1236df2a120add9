"""Closed-loop benchmark of the heisenring command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ./src.
One client runs one fresh ``python -m heisenring <subcommand>`` process at
a time, each fed the config the seed generates, until the next one
would overrun --seconds.  Every output is checked by the workload's
correctness gates (bench/workloads.py).  BLAS threads are pinned to BLAS_THREADS.

--trace 0 reports the end-to-end metrics: medians of wall_s, cpu_s and
peak_rss_mb over the processes of the run (cpu and RSS from os.wait4),
setup_s as the median of spawns timed until heisenring.cli is imported
(PROBES_PER_PROCESS before each measured process), and ok_frac, the share
of operations that passed.

--trace 1 alternates untraced and traced processes (bench/tracer.py) and
reports per-layer metrics from the traced ones; trace.overhead_s is the
traced minus the untraced median wall time.

The last line of stdout is the result JSON; the lines before it and
.bench_runs/<workload>-seed<N>-trace<T>/result.json hold the provenance,
every sample and the layer shares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import COMPUTED, PER_LAYER_UNITS, layer_metrics, layer_shares
from workloads import WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = 2
PROBES_PER_PROCESS = 2
CHILD_TIMEOUT_S = 150.0
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
             "ok_frac": "ratio"}

PROBE = "import heisenring.cli, sys; sys.stdout.write('imported\\n'); sys.stdout.flush()"
PROVENANCE = """
import contextlib, io, json, platform
import numpy as np
import heisenring
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
except (TypeError, KeyError):  # older numpy: text only
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        np.show_config()
    blas = {"show_config": buf.getvalue()}
print(json.dumps({"heisenring": getattr(heisenring, "__version__", None),
                  "numpy": np.__version__, "python": platform.python_version(),
                  "blas": blas}))
"""


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_process(argv: list[str], cwd: Path, stdout_path: Path) -> dict:
    """Spawn, wait with os.wait4 and return wall, CPU, peak RSS and exit code."""
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit_code": proc.returncode}


def setup_probe(cwd: Path) -> float:
    """Seconds from spawn until heisenring.cli has been imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line != b"imported\n" or proc.returncode != 0:
        raise BenchError("heisenring.cli does not import")
    return elapsed


def provenance(workload: str, seed: int, config: dict, cwd: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", PROVENANCE], cwd=cwd, env=child_env(),
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"provenance probe failed: {out.stderr.strip()[-300:]}")
    info = json.loads(out.stdout)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    info.update(
        git_commit=commit,
        blas_threads=BLAS_THREADS,
        blas_threads_env="OPENBLAS_NUM_THREADS",
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        loadavg_at_start=os.getloadavg(),
        machine=platform.machine(),
        bench_python=platform.python_version(),
        workload=workload, seed=seed, config=config,
    )
    return info


class Session:
    """One benchmark run: a workload's config, its files and its gate tally."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.config = workload.make_config(random.Random(f"{workload.name}:{seed}"))
        self.work = ROOT / ".bench_runs" / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "stderr.txt").write_bytes(b"")
        config_path = self.work / "config.json"
        config_path.write_text(json.dumps(self.config))
        self.out_path = self.work / "out.txt"
        self.spans_path = self.work / "spans.json"
        cli_args = workload.cli_args(str(config_path), str(self.out_path))
        self.plain_argv = [sys.executable, "-m", "heisenring", *cli_args]
        self.traced_argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                            str(self.spans_path), *cli_args]
        self.outcome = Outcome(0, 0)
        self.gates: list[dict] = []

    def run(self, argv: list[str]) -> dict:
        """One process, its output passed through the workload's gates."""
        self.out_path.unlink(missing_ok=True)
        self.spans_path.unlink(missing_ok=True)
        sample = run_process(argv, self.work, self.work / "stdout.txt")
        text = self.out_path.read_text() if self.out_path.exists() else ""
        result = self.workload.check(self.config, text, sample["exit_code"])
        self.outcome.attempted += result.attempted
        self.outcome.failed += result.failed
        self.gates.append(result.detail)
        sample.update(attempted=result.attempted, failed=result.failed)
        print("sample " + json.dumps(sample), flush=True)
        return sample

    def spans(self) -> dict:
        if not self.spans_path.exists():
            raise BenchError("the traced process wrote no spans")
        return json.loads(self.spans_path.read_text())


def end_to_end(session: Session, start: float, seconds: float, record: dict) -> dict:
    # setup probes are spread over the run, not bunched at its start, so that
    # their median sees the same machine load as the measured processes
    setup, samples, rounds = [], [], []
    while True:
        t_round = time.perf_counter()
        setup += [setup_probe(session.work) for _ in range(PROBES_PER_PROCESS)]
        samples.append(session.run(session.plain_argv))
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    record.update(samples=samples, setup_samples=setup)
    outcome = session.outcome
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setup),
        "ok_frac": 1.0 - outcome.failed / outcome.attempted,
    }


def per_layer(session: Session, start: float, seconds: float, record: dict) -> dict:
    plain, traced, layer_runs = [], [], []
    while True:
        t_pair = time.perf_counter()
        # alternate which side goes first so neither always runs cold
        if len(plain) % 2 == 0:
            plain.append(session.run(session.plain_argv))
        traced.append(session.run(session.traced_argv))
        doc = session.spans()
        layer_runs.append(layer_metrics(doc))
        if len(plain) < len(traced):
            plain.append(session.run(session.plain_argv))
        pair = time.perf_counter() - t_pair
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                   - statistics.median(s["wall_s"] for s in plain))
    record.update(plain_samples=plain, traced_samples=traced, absent=doc["absent"],
                  computed=list(COMPUTED), shares=layer_shares(doc))
    for name, share in record["shares"]["self_share"].items():
        print(f"share {name} {share:.4f}", flush=True)
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    session = Session(workload, seed, trace)
    start = time.perf_counter()
    setup_probe(session.work)  # untimed: writes bytecode caches, warms the page cache
    record = {"provenance": provenance(workload.name, seed, session.config, session.work)}
    print("provenance " + json.dumps(record["provenance"]), flush=True)

    if trace:
        metrics = per_layer(session, start, seconds, record)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(session, start, seconds, record)
        units = E2E_UNITS

    outcome = session.outcome
    record.update(gates=session.gates, attempted=outcome.attempted, failed=outcome.failed,
                  failed_frac=outcome.failed / outcome.attempted, metrics=metrics)
    (session.work / "result.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "heisenring" / "__init__.py").is_file():
        print(f"no heisenring sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
