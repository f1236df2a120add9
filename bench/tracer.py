"""Outside-in tracer for one heisenring command-line process.

Run as

    python bench/tracer.py SPANS.json <heisenring CLI arguments...>

It imports heisenring, rebinds every traced function in each heisenring
module namespace that holds that function object (``sweep`` imports
``pair_rdm_thermal`` by name, so rebinding only ``twoqubit`` would miss
it), wraps ``numpy.linalg.eigh``/``eigvalsh``, then runs the CLI exactly as
``python -m heisenring`` does.  Spans stay in memory and are written to
SPANS.json when the CLI exits.  The program itself is not modified.

A traced name that the program no longer defines is listed as absent in the
output instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
import threading
import time

# module.function names, relative to the heisenring package
TRACED = (
    "cli.main",
    "cli.build_parser",
    "cli._load_config",
    "cli.parse_sweep_config",
    "cli.parse_verify_options",
    "cli.parse_model",
    "cli.render_csv",
    "cli.render_json",
    "cli._write_out",
    "spectral.decompose",
    "spectral.diagonalize_full",
    "model.build_hamiltonian",
    "model.kron_at",
    "thermo.thermo_point",
    "thermo.gibbs_state",
    "twoqubit.pair_rdm_thermal",
    "twoqubit.correlations_from_rdm",
    "twoqubit.reduce_to_pair",
    "twoqubit.correlations",
    "entanglement.concurrence_report",
    "entanglement.concurrence_wootters",
    "bell.violation_measure",
    "bell.frame_expectations",
    "threshold.find_threshold",
    "sweep.run_sweep",
    "sweep.sweep_row",
    "verify.run_verification",
    "verify.render_report",
)

EIGENSOLVERS = ("eigh", "eigvalsh")


def eigvec_bytes(sd) -> int:
    """Computed bytes of the eigenvector arrays a decomposition holds.

    The dense complex matrix is 16 * 4**N bytes.  A decomposition that keeps
    its vectors under another attribute name containing "vec" (for example
    per-sector blocks) is counted by summing those arrays instead.
    """
    total = 0
    for name, value in vars(sd).items() if hasattr(sd, "__dict__") else ():
        if "vec" not in name:
            continue
        items = value if isinstance(value, (list, tuple)) else (value,)
        for item in items:
            parts = item if isinstance(item, (list, tuple)) else (item,)
            total += sum(int(getattr(p, "nbytes", 0)) for p in parts)
    return total


def _decomposition_extra(args, kwargs, result):
    return {"eigvec_bytes": eigvec_bytes(result)}


def _pair_rdm_extra(args, kwargs, result):
    sd = args[0] if args else kwargs.get("sd")
    return {"bytes": eigvec_bytes(sd)}


EXTRAS = {
    "spectral.decompose": _decomposition_extra,
    "spectral.diagonalize_full": _decomposition_extra,
    "twoqubit.pair_rdm_thermal": _pair_rdm_extra,
}


class Recorder:
    """Spans as (name, start, end, parent index, extra) in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extra=None, with_caller=False):
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            info = None
            if with_caller:
                frame = sys._getframe(1)
                module = frame.f_globals.get("__name__", "?").removeprefix("heisenring.")
                shape = getattr(args[0], "shape", ()) if args else ()
                info = {"caller": f"{module}.{frame.f_code.co_name}",
                        "dim": int(shape[-1]) if shape else 0}
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # a tuple of atomic values drops out of the cyclic GC's
                # bookkeeping, so a long trace does not slow collections
                spans[index] = (name, start, end, parent, info)
            if extra is not None:
                spans[index] = (name, start, end, parent, extra(args, kwargs, result))
            return result

        return traced


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(recorder: Recorder) -> list[str]:
    """Wrap every traced name that exists; return the names that do not."""
    import numpy as np

    import heisenring.cli  # noqa: F401  (pulls in every module the CLI uses)

    modules = [mod for name, mod in sorted(sys.modules.items())
               if mod is not None and (name == "heisenring" or name.startswith("heisenring."))]
    by_name = {mod.__name__: mod for mod in modules}
    absent = []
    for qual in TRACED:
        mod_name, attr = qual.rsplit(".", 1)
        fn = getattr(by_name.get(f"heisenring.{mod_name}"), attr, None)
        if not callable(fn):
            absent.append(qual)
            continue
        _rebind(modules, fn, recorder.wrap(qual, fn, EXTRAS.get(qual)))
    for attr in EIGENSOLVERS:
        fn = getattr(np.linalg, attr)
        wrapped = recorder.wrap(f"linalg.{attr}", fn, with_caller=True)
        setattr(np.linalg, attr, wrapped)
        _rebind(modules, fn, wrapped)
    return absent


def main() -> None:
    if len(sys.argv) < 3:
        sys.exit("usage: tracer.py SPANS.json <heisenring CLI arguments...>")
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    absent = install(recorder)
    sys.argv = ["heisenring", *cli_args]
    code = 0
    try:
        runpy.run_module("heisenring", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out_path, "w") as fh:
            json.dump({"absent": absent, "traced": list(TRACED),
                       "spans": recorder.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
