"""Per-layer metrics from the spans bench/tracer.py writes.

A span's self time is its duration minus the time its child spans cover.
Eigensolver calls are spans of their own, so a layer's self time excludes
the eigensolver; each eigensolver call is attributed to the module that
called it, with its block dimension.  Byte counts are computed from array
sizes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

# names whose calls and self time are reported
CALLS = (
    "spectral.decompose", "twoqubit.pair_rdm_thermal", "twoqubit.correlations_from_rdm",
    "bell.violation_measure", "entanglement.concurrence_report",
    "model.build_hamiltonian", "model.kron_at", "thermo.gibbs_state",
    "thermo.thermo_point", "sweep.sweep_row",
)
SELF = (
    "spectral.decompose", "spectral.diagonalize_full", "twoqubit.pair_rdm_thermal",
    "twoqubit.correlations_from_rdm", "bell.violation_measure",
    "entanglement.concurrence_report", "entanglement.concurrence_wootters",
    "model.build_hamiltonian", "model.kron_at", "thermo.gibbs_state",
    "twoqubit.reduce_to_pair", "twoqubit.correlations", "bell.frame_expectations",
    "verify.run_verification", "thermo.thermo_point", "threshold.find_threshold",
    "sweep.run_sweep",
)
# groups timed as the union of their outermost spans
GROUPS = {
    "cli.parse": ("cli.build_parser", "cli._load_config", "cli.parse_sweep_config",
                  "cli.parse_verify_options", "cli.parse_model"),
    "cli.render": ("cli.render_csv", "cli.render_json", "verify.render_report",
                   "cli._write_out"),
}
EIGENSOLVE = ("linalg.eigh", "linalg.eigvalsh")
ROOT_SPAN = "cli.main"

# work counts computed from array shapes and sizes, not measured
COMPUTED = ("spectral.eigensolve.sum_dim3", "spectral.eigvec_bytes",
            "twoqubit.pair_rdm_thermal.bytes")

PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF},
    **{f"{name}.s": "s" for name in GROUPS},
    "spectral.eigensolve.calls": "count",
    "spectral.eigensolve.s": "s",
    "spectral.eigensolve.max_dim": "count",
    "spectral.eigensolve.sum_dim3": "count",
    "spectral.eigvec_bytes": "bytes",
    "twoqubit.pair_rdm_thermal.bytes": "bytes",
    "verify.eigensolve.s": "s",
    "trace.overhead_s": "s",
    "trace.absent": "count",
}


def _self_times(spans: list) -> list[float]:
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def _outermost_total(spans: list, names: tuple[str, ...]) -> float:
    """Wall time of spans in `names` that have no ancestor in `names`."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(doc: dict) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s; absent names read 0."""
    spans = doc["spans"]
    self_s = _self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for span, s in zip(spans, self_s):
        calls[span[0]] += 1
        own[span[0]] += s

    out = {f"{name}.calls": float(calls[name]) for name in CALLS}
    out.update({f"{name}.self_s": own[name] for name in SELF})
    out.update({f"{name}.s": _outermost_total(spans, members)
                for name, members in GROUPS.items()})

    solves = [(span, span[2] - span[1]) for span in spans if span[0] in EIGENSOLVE]
    spectral = [(span[4]["dim"], t) for span, t in solves
                if span[4]["caller"].startswith("spectral.")]
    out["spectral.eigensolve.calls"] = float(len(spectral))
    out["spectral.eigensolve.s"] = float(sum(t for _, t in spectral))
    out["spectral.eigensolve.max_dim"] = float(max((d for d, _ in spectral), default=0))
    out["spectral.eigensolve.sum_dim3"] = float(sum(d ** 3 for d, _ in spectral))
    out["verify.eigensolve.s"] = float(sum(t for span, t in solves
                                           if span[4]["caller"].startswith("verify.")))

    def largest(names: tuple[str, ...], key: str) -> float:
        return float(max((span[4][key] for span in spans
                          if span[0] in names and span[4]), default=0))

    out["spectral.eigvec_bytes"] = largest(
        ("spectral.decompose", "spectral.diagonalize_full"), "eigvec_bytes")
    out["twoqubit.pair_rdm_thermal.bytes"] = largest(
        ("twoqubit.pair_rdm_thermal",), "bytes")
    out["trace.absent"] = float(len(doc["absent"]))
    return out


def layer_shares(doc: dict) -> dict:
    """Self time of each traced name as a share of the root span, largest first.

    Eigensolver calls are split by the function that made them.
    """
    spans = doc["spans"]
    self_s = _self_times(spans)
    root = sum(end - start for name, start, end, _, _ in spans if name == ROOT_SPAN)
    own: dict[str, float] = defaultdict(float)
    for span, s in zip(spans, self_s):
        name = span[0]
        if name in EIGENSOLVE:
            name = f"{name}<-{span[4]['caller']}"
        own[name] += s
    eig_dims: dict[str, list] = {}
    for span in spans:
        if span[0] in EIGENSOLVE:
            entry = eig_dims.setdefault(span[4]["caller"], [0, 0])
            entry[0] += 1
            entry[1] = max(entry[1], span[4]["dim"])
    ranked = sorted(own.items(), key=lambda kv: -kv[1])
    return {
        "root_s": root,
        "self_share": {name: s / root for name, s in ranked if root > 0},
        "eigensolve_by_caller": {k: {"calls": c, "max_dim": d}
                                 for k, (c, d) in eig_dims.items()},
    }
