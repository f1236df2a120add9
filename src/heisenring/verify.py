"""One-shot verification suite over a grid of ring models.

Runs every library invariant and closed-form identity on a configurable
(N, delta, B, J, T) grid and reports the worst residual seen per named
check.  Deterministic for a fixed seed, including the random-frame CHSH
probes.  The CLI `verify` subcommand renders this report and exits nonzero
if any check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bell, entanglement, model, spectral, thermo, threshold, twoqubit

TSIRELSON = bell.TSIRELSON


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyOptions:
    n_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    deltas: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    fields: tuple[float, ...] = (0.0, 0.5)
    j_values: tuple[float, ...] = (1.0, -1.0)
    temperatures: tuple[float, ...] = field(
        default_factory=lambda: tuple(np.geomspace(0.1, 10.0, 6)))
    seed: int = 20260811
    frames: int = 10_000
    sampled_states: int = 20


class _Collector:
    """Tracks the worst residual per named check."""

    def __init__(self):
        self.worst: dict[str, tuple[float, str]] = {}
        self.thresholds: dict[str, float] = {}

    def record(self, name: str, residual: float, threshold: float, detail: str = ""):
        self.thresholds[name] = threshold
        prev = self.worst.get(name)
        if prev is None or residual > prev[0]:
            self.worst[name] = (float(residual), detail)

    def require(self, name: str, ok: bool, detail: str = ""):
        # boolean checks: residual 1 on failure
        self.record(name, 0.0 if ok else 1.0, 0.5, detail)

    def results(self) -> list[CheckResult]:
        out = []
        for name in sorted(self.worst):
            residual, detail = self.worst[name]
            thr = self.thresholds[name]
            out.append(CheckResult(name, residual, thr, residual <= thr, detail))
        return out


def check_hermiticity(h: np.ndarray) -> float:
    """Scale-normalized Hermiticity defect; the verify suite requires <= 1e-12."""
    scale = max(1.0, float(np.max(np.abs(h))))
    return float(np.max(np.abs(h - h.conj().T))) / scale


def _spec_grid(opts: VerifyOptions):
    for n in opts.n_values:
        for delta in opts.deltas:
            for b in opts.fields:
                for j in opts.j_values:
                    yield model.ModelSpec.uniform(n, j, delta, b)


def run_verification(opts: VerifyOptions | None = None) -> list[CheckResult]:
    opts = opts or VerifyOptions()
    col = _Collector()
    temps = np.asarray(opts.temperatures, dtype=float)

    sampled_tensors: list[tuple[str, np.ndarray]] = []
    spec_index = 0

    for spec in _spec_grid(opts):
        spec_index += 1
        n, j = spec.n_sites, spec.coupling.j
        delta, b = spec.coupling.delta, spec.field_b
        tag = f"N={n} J={j} delta={delta} B={b}"

        h = model.build_hamiltonian(spec)
        col.record("hermiticity", check_hermiticity(h), 1e-12, tag)

        # the production path builds its blocks from bit rules; the dense
        # diagonalisation of h is the independent oracle
        sd = spectral.decompose(spec)
        full = spectral.diagonalize_full(h)
        col.record("sector_vs_full_spectrum",
                   float(np.max(np.abs(sd.eigenvalues - full.eigenvalues))), 1e-9, tag)
        resid, ortho = spectral.eigen_residuals(h, sd)
        col.record("eigen_residual", resid, 1e-9, tag)
        col.record("orthonormality", ortho, 1e-9, tag)
        col.record("trace_sum",
                   abs(float(sd.eigenvalues.sum()) - float(np.trace(h).real))
                   / max(1.0, abs(float(np.trace(h).real))), 1e-8, tag)

        t_shift = model.shift_operator(n)
        col.record("translation_covariance",
                   float(np.max(np.abs(t_shift @ h @ t_shift.conj().T - h))), 1e-12, tag)

        if j != 0.0:
            jx, jy, jz = model.ring_coupling_matrices(spec)
            gen = model.ModelSpec.general(jx, jy, jz, field_b=b)
            col.record("uniform_general_match",
                       float(np.max(np.abs(model.build_hamiltonian(gen) - h))), 1e-13, tag)

        if delta == 1.0 and b != 0.0:
            flipped = model.build_hamiltonian(
                model.ModelSpec.uniform(n, j, delta, -b))
            col.record("field_flip_spectrum",
                       float(np.max(np.abs(np.linalg.eigvalsh(flipped)
                                           - sd.eigenvalues))), 1e-10, tag)

        # high-temperature limit and a near-zero-temperature stability probe
        tp_hot = thermo.thermo_point(sd, spec, 1e6)
        col.record("u_high_t_limit", abs(tp_hot.u) / (n * max(abs(j), 1e-300)),
                   1e-3, tag)
        tp_cold = thermo.thermo_point(sd, spec, 1e-8)
        tp_zero = thermo.thermo_point(sd, spec, 0.0)
        stable = (math.isfinite(tp_cold.u) and math.isfinite(tp_cold.m)
                  and abs(tp_cold.u - tp_zero.u) <= 1e-6
                  and abs(tp_cold.m - tp_zero.m) <= 1e-6)
        col.require("low_t_stability", stable, tag)

        prev_u = None
        c_series = []
        for t in temps:
            tp = thermo.thermo_point(sd, spec, float(t))
            if prev_u is not None:
                col.record("u_monotone", max(0.0, prev_u - tp.u), 1e-12,
                           f"{tag} T={t:g}")
            prev_u = tp.u
            if b == 0.0:
                col.record("u_nonpositive_b0", max(0.0, tp.u), 1e-10, f"{tag} T={t:g}")

            rho = thermo.gibbs_state(full, float(t))
            col.record("gibbs_trace", abs(float(np.trace(rho.matrix).real) - 1.0),
                       1e-12, f"{tag} T={t:g}")
            col.record("gibbs_hermitian",
                       float(np.max(np.abs(rho.matrix - rho.matrix.conj().T))),
                       1e-12, f"{tag} T={t:g}")
            col.record("gibbs_positive",
                       max(0.0, -float(np.linalg.eigvalsh(rho.matrix).min())),
                       1e-12, f"{tag} T={t:g}")

            rdm = twoqubit.pair_rdm_thermal(sd, float(t), 1, 2)
            col.record("pair_rdm_routes",
                       float(np.max(np.abs(
                           twoqubit.reduce_to_pair(rho, 1, 2).matrix - rdm.matrix))),
                       1e-12, f"{tag} T={t:g}")
            cs = twoqubit.correlations_from_rdm(rdm)
            cs_full = None
            if n <= 5:
                cs_full = twoqubit.correlations(rho, 1, 2)
                col.record("correlations_full_vs_rdm",
                           max(float(np.max(np.abs(cs_full.g - cs.g))),
                               abs(cs_full.m_per_site - cs.m_per_site)),
                           1e-12, f"{tag} T={t:g}")

            for rel, r in twoqubit.check_element_relations(rdm, cs).items():
                col.record(f"element_relation_{rel}", r, 1e-10, f"{tag} T={t:g}")
            col.record("g_bound", max(0.0, float(np.max(np.abs(cs.g))) - 1.0),
                       1e-12, f"{tag} T={t:g}")
            col.record("m_bar_vs_thermo", abs(rdm.m_bar - tp.m_per_site), 1e-10,
                       f"{tag} T={t:g}")
            col.record("reflection_im_z", abs(rdm.z.imag), 1e-10, f"{tag} T={t:g}")

            k = 1 + n // 2  # some other bond (k, k+1) around the ring
            rdm_shift = twoqubit.pair_rdm_thermal(sd, float(t), k, k % n + 1)
            col.record("pair_translation",
                       float(np.max(np.abs(rdm.matrix - rdm_shift.matrix))),
                       1e-10, f"{tag} T={t:g}")

            report = entanglement.concurrence_report(rdm, cs, spec, tp.u_per_site)
            c_series.append(report.wootters)
            if report.x_form is not None:
                col.record("route_x_form", abs(report.x_form - report.wootters),
                           1e-10, f"{tag} T={t:g}")
            if report.correlation_form is not None:
                col.record("route_correlation",
                           abs(report.correlation_form - report.wootters),
                           1e-9, f"{tag} T={t:g}")
            if report.energy_form is not None:
                col.record("route_energy", abs(report.energy_form - report.wootters),
                           1e-9, f"{tag} T={t:g}")
                if report.energy_form == 0.0:
                    col.record("clamp_consistency", report.wootters, 1e-9,
                               f"{tag} T={t:g}")

            if delta == 1.0 and b == 0.0:
                col.record("prop1_magnetization", abs(tp.m), 1e-10, f"{tag} T={t:g}")
                col.record("prop1_im_z", abs(rdm.z.imag), 1e-10, f"{tag} T={t:g}")
                col.record("prop3_u_nonpositive", max(0.0, tp.u), 1e-10,
                           f"{tag} T={t:g}")
                if abs(rdm.z) > 1e-12:
                    col.require("prop3_z_sign",
                                (rdm.z.real < 0) == (j > 0), f"{tag} T={t:g}")
                col.record("z_energy_relation",
                           abs(rdm.z.real - tp.u / (6.0 * j * n)), 1e-10,
                           f"{tag} T={t:g}")
                col.record("gzz_energy_relation",
                           abs(float(cs.g[2, 2]) - tp.u / (3.0 * j * n)), 1e-10,
                           f"{tag} T={t:g}")
                if j < 0:
                    col.record("fm_concurrence_zero", report.wootters, 1e-12,
                               f"{tag} T={t:g}")

                bres = bell.violation_measure(cs.g)
                col.record("bell_xxx_closed_form",
                           abs(bres.measure - bell.violation_xxx(tp.u, j, n)),
                           1e-10, f"{tag} T={t:g}")
                col.record("bell_c_vs_b",
                           abs(bell.concurrence_vs_violation(
                               bres.measure, "afm" if j > 0 else "fm")
                               - report.wootters), 1e-9, f"{tag} T={t:g}")
                if bres.measure > 2.0:
                    col.require("bell_witness_direction", report.wootters > 0.0,
                                f"{tag} T={t:g}")

            if b != 0.0 and cs_full is not None:
                # the measure is a function of the correlation tensor alone;
                # feed it the independently computed full-space tensor
                col.record("bell_field_independence",
                           abs(bell.violation_measure(cs_full.g).measure
                               - bell.violation_measure(cs.g).measure),
                           1e-12, f"{tag} T={t:g}")

            if spec_index % 7 == 0 and len(sampled_tensors) < opts.sampled_states:
                sampled_tensors.append((f"{tag} T={t:g}", cs.g))

        if delta == 1.0 and b == 0.0 and j > 0:
            drops = [max(0.0, c_series[k + 1] - c_series[k])
                     for k in range(len(c_series) - 1)]
            col.record("concurrence_monotone_afm", max(drops) if drops else 0.0,
                       1e-12, tag)

    # threshold machinery on a few antiferromagnetic isotropic rings
    for n in (2, 4, 5):
        if n not in opts.n_values:
            continue
        spec = model.ModelSpec.uniform(n, 1.0)
        sd = spectral.decompose(spec)
        res = threshold.find_threshold(spec, sd)
        col.require("threshold_found", res.status == threshold.STATUS_FOUND, f"N={n}")
        if res.status == threshold.STATUS_FOUND:
            col.record("threshold_u_of_n", abs(res.u_of_n - 1.0), 1e-7, f"N={n}")
            below = entanglement.concurrence_wootters(
                twoqubit.pair_rdm_thermal(sd, res.t_c * (1 - 1e-3), 1, 2)).wootters
            above = entanglement.concurrence_wootters(
                twoqubit.pair_rdm_thermal(sd, res.t_c * (1 + 1e-3), 1, 2)).wootters
            col.require("threshold_two_sided", below > 0.0 and above == 0.0, f"N={n}")
    if 2 in opts.n_values:
        spec1 = model.ModelSpec.uniform(2, 1.0)
        spec2 = model.ModelSpec.uniform(2, 2.0)
        t1 = threshold.find_threshold(spec1, spectral.decompose(spec1)).t_c
        t2 = threshold.find_threshold(spec2, spectral.decompose(spec2)).t_c
        col.record("threshold_linear_in_j", abs(t2 - 2.0 * t1) / (2.0 * t1), 1e-6,
                   "N=2, J=1 vs J=2")

    # zero-temperature entanglement pattern
    for n in opts.n_values:
        spec = model.ModelSpec.uniform(n, 1.0)
        sd = spectral.decompose(spec)
        c0 = entanglement.concurrence_wootters(
            twoqubit.pair_rdm_thermal(sd, 0.0, 1, 2)).wootters
        if n == 3:
            col.record("ground_state_n3_zero", c0, 1e-10, "N=3")
        else:
            col.require("ground_state_entangled", c0 > 1e-3, f"N={n} C={c0:.4g}")

    # seeded random CHSH frames never beat the Horodecki measure
    frames = bell.random_frames(opts.frames, opts.seed)
    for tag, g in sampled_tensors:
        best = float(np.max(np.abs(bell.frame_expectations(g, frames))))
        measure = bell.violation_measure(g).measure
        col.record("bell_frames_bound", max(0.0, best - measure), 1e-8, tag)
        col.record("bell_measure_range", max(0.0, measure - TSIRELSON), 1e-10, tag)

    # finite-difference thermodynamic self-checks on a seeded random sample
    rng = np.random.default_rng(opts.seed)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        spec = model.ModelSpec.uniform(
            n,
            float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        t = float(rng.uniform(0.5, 5.0))
        u_res, m_res = thermo.check_derivatives(spec, t)
        col.record("derivative_u", u_res, 1e-5, f"N={n} T={t:.3g}")
        col.record("derivative_m", m_res, 1e-5, f"N={n} T={t:.3g}")

    return col.results()


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: residual={r.residual:.3e} "
                     f"(threshold {r.threshold:.0e}) {r.detail}".rstrip())
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
