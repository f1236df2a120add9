"""One-shot verification suite over a grid of ring models.

Runs every library invariant and closed-form identity on a configurable
(N, delta, B, J, T) grid and reports the worst residual seen per named
check.  Deterministic for a fixed seed, including the random-frame CHSH
probes.  The CLI `verify` subcommand renders this report and exits nonzero
if any check fails.

The production side of each grid spec runs as the sweep runs it: one
thermo_grid over the whole temperature grid, one pair_rdms stack per site
pair, and one correlation, concurrence and Bell evaluation on the stack.
The dense oracle (heisenring.oracle) builds one Gibbs matrix at a time, so
an N = 12 grid never holds a stack of 2^N x 2^N matrices.  Each check then
records its residual row by row, in temperature order.  The pair mode of
spectral.decompose, which every sweep of a uniform ring takes, is held
against the sector pair table on one or two specs per N, for a ring bond
and for a pair half the ring apart, and against a derivative of log Z in
the anisotropy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import bell, entanglement, model, oracle, spectral, thermo, threshold, twoqubit
from ._blas import threads_for

TSIRELSON = bell.TSIRELSON
# peak bytes per frame of bell.random_frames (the normal draw, its squares
# and norms, and the normalised copy), and the most the frames may take
FRAME_BYTES = 264
FRAMES_BUDGET_BYTES = 256 << 20
# the high-temperature limit, then the near-zero stability probe and T = 0,
# appended to each spec's temperature stack in this order
PROBE_TEMPERATURES = (1e6, 1e-8, 0.0)


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

    def __post_init__(self):
        # every grid ring is diagonalized densely as the oracle, and the
        # closed-form energy routes divide by J
        for key in ("n_values", "deltas", "fields", "j_values", "temperatures"):
            vals = getattr(self, key)
            # not math.isfinite, which raises on an int past float range
            if (not isinstance(vals, (list, tuple)) or not vals
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               and abs(v) <= sys.float_info.max for v in vals)):
                raise ValueError(f"{key!r} must be a non-empty list of finite numbers")
            object.__setattr__(self, key, tuple(vals) if key == "n_values"
                               else tuple(float(v) for v in vals))
        # ascending, so the monotonicity checks read the grid in T order
        object.__setattr__(self, "temperatures", tuple(sorted(self.temperatures)))
        max_n = spectral.FULL_PATH_MAX_SITES
        if not all(isinstance(n, int) and 2 <= n <= max_n for n in self.n_values):
            raise ValueError(f"'n_values' must be integers in 2..{max_n}, "
                             f"got {list(self.n_values)!r}")
        if 0.0 in self.j_values:
            raise ValueError(f"'j_values' must be nonzero, got {list(self.j_values)!r}")
        # building every grid spec refuses couplings whose bound on |H| overflows
        list(_spec_grid(self))
        if min(self.temperatures) < 0.0:
            raise ValueError(f"'temperatures' must be >= 0, got {list(self.temperatures)!r}")
        for key in ("seed", "frames", "sampled_states"):
            val = getattr(self, key)
            if isinstance(val, bool) or not isinstance(val, int) or val < 0:
                raise ValueError(f"{key!r} must be a non-negative integer")
        # bell_frames_bound takes the best of the frames, so it needs one
        if self.frames < 1:
            raise ValueError(f"'frames' must be >= 1, got {self.frames}")
        if self.frames * FRAME_BYTES > FRAMES_BUDGET_BYTES:
            raise ValueError(
                f"'frames'={self.frames} needs about {self.frames * FRAME_BYTES >> 20} MiB, "
                f"over the {FRAMES_BUDGET_BYTES >> 20} MiB budget; at most "
                f"{FRAMES_BUDGET_BYTES // FRAME_BYTES} frames")


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


def _spec_grid(opts: VerifyOptions):
    for n in opts.n_values:
        for delta in opts.deltas:
            for b in opts.fields:
                for j in opts.j_values:
                    yield model.ModelSpec.uniform(n, j, delta, b)


def _label_spectrum_gap(a: spectral.SpectralDecomposition,
                        b: spectral.SpectralDecomposition) -> float:
    """Worst eigenvalue difference within each S_z label; inf if the levels per label differ."""
    if not np.array_equal(np.unique(a.sector_labels, return_counts=True),
                          np.unique(b.sector_labels, return_counts=True)):
        return math.inf
    return max(float(np.max(np.abs(a.eigenvalues[a.sector_labels == s]
                                   - b.eigenvalues[b.sector_labels == s])))
               for s in np.unique(a.sector_labels))


def run_verification(opts: VerifyOptions | None = None) -> list[CheckResult]:
    opts = opts or VerifyOptions()
    col = _Collector()
    temps = np.asarray(opts.temperatures, dtype=float)
    n_temps = temps.size
    # the momentum blocks are checked once per N, on an anisotropic ring in
    # a field when the grid has one; their pair mode also on the isotropic
    # J = 1 ring, when the grid has it
    momentum_case = (next((d for d in opts.deltas if d != 1.0), opts.deltas[0]),
                     next((b for b in opts.fields if b != 0.0), opts.fields[0]),
                     opts.j_values[0])
    bond_cases = (momentum_case, (1.0, 0.0, 1.0))

    sampled_tensors: list[tuple[str, np.ndarray]] = []
    spec_index = 0
    # the isotropic J = 1 ring of each N, when the grid has it
    isotropic: dict[int, spectral.SpectralDecomposition] = {}

    for spec in _spec_grid(opts):
        spec_index += 1
        n, j = spec.n_sites, spec.coupling.j
        delta, b = spec.coupling.delta, spec.field_b
        tag = f"N={n} J={j} delta={delta} B={b}"

        h = model.build_hamiltonian(spec)
        col.record("hermiticity", model.hermiticity_defect(h), 1e-12, tag)

        # the production path builds its blocks from bit rules; the dense
        # diagonalisation of h is the independent oracle
        sd = spectral.decompose(spec)
        full = spectral.diagonalize_full(h)
        col.record("sector_vs_full_spectrum",
                   float(np.max(np.abs(sd.eigenvalues - full.eigenvalues))), 1e-9, tag)
        if (delta, b, j) == momentum_case:
            # the values-only spectrum that threshold and spectrum read; the
            # pair mode solves the same real blocks by eigh, another LAPACK
            # driver, so it is checked through its pair RDMs below
            col.record("momentum_vs_sector_spectrum", _label_spectrum_gap(
                spectral.decompose(spec, vectors=False), sd), 1e-9, tag)
        resid, ortho = oracle.eigen_residuals(h, sd)
        col.record("eigen_residual", resid, 1e-9, tag)
        col.record("orthonormality", ortho, 1e-9, tag)
        col.record("trace_sum",
                   abs(float(sd.eigenvalues.sum()) - float(np.trace(h).real))
                   / max(1.0, abs(float(np.trace(h).real))), 1e-8, tag)

        p = model.translation(n)
        col.record("translation_covariance",
                   float(np.max(np.abs(h[np.ix_(p, p)] - h))), 1e-12, tag)

        if j != 0.0:
            jx, jy, jz = model.ring_coupling_matrices(spec)
            gen = model.ModelSpec.general(jx, jy, jz, field_b=b)
            col.record("uniform_general_match",
                       float(np.max(np.abs(model.build_hamiltonian(gen) - h))), 1e-13, tag)

        if delta == 1.0 and b != 0.0:
            flipped = model.build_hamiltonian(
                model.ModelSpec.uniform(n, j, delta, -b))
            with threads_for(flipped.shape[0]):
                flipped_evals = np.linalg.eigvalsh(flipped)
            col.record("field_flip_spectrum",
                       float(np.max(np.abs(flipped_evals - sd.eigenvalues))), 1e-10, tag)

        # the production side runs once on the whole temperature stack: the
        # grid rows, then the high-temperature limit and the near-zero
        # stability probe
        grid = thermo.thermo_grid(sd, spec, np.concatenate((temps, PROBE_TEMPERATURES)))
        u_hot, u_cold, u_zero = grid.u[n_temps:].tolist()
        m_cold, m_zero = grid.m[n_temps + 1:].tolist()
        col.record("u_high_t_limit", abs(u_hot) / (n * max(abs(j), 1e-300)), 1e-3, tag)
        stable = (math.isfinite(u_cold) and math.isfinite(m_cold)
                  and abs(u_cold - u_zero) <= 1e-6
                  and abs(m_cold - m_zero) <= 1e-6)
        col.require("low_t_stability", stable, tag)

        probabilities = grid.probabilities[:n_temps]
        u, m = grid.u[:n_temps], grid.m[:n_temps]
        rdm = twoqubit.pair_rdms(sd, probabilities, 1, 2)
        if (delta, b, j) in bond_cases:
            # the pair mode's table from (S_z label, ZZ_n, XY_n) on the
            # momentum blocks, against the table from the sector
            # eigenvectors: a ring bond, and from N = 4 a pair at distance
            # N // 2, which is no bond
            pair_checks = [("bond_route_vs_pair_table", (1, 2), rdm)]
            if n >= 4:
                far = (1, 1 + n // 2)
                pair_checks.append(("distance_route_vs_pair_table", far,
                                    twoqubit.pair_rdms(sd, probabilities, *far)))
            for name, pair, want in pair_checks:
                pair_sd = spectral.decompose(spec, pair=pair)
                got = twoqubit.pair_rdms(
                    pair_sd, thermo.thermo_grid(pair_sd, spec, temps).probabilities, *pair)
                gaps = np.abs(got.matrix - want.matrix).max(axis=(1, 2)).tolist()
                for t, gap in zip(temps, gaps):
                    col.record(name, gap, 1e-12, f"{tag} T={t:g}")
        k = 1 + n // 2  # some other bond (k, k+1) around the ring
        rdm_shift = twoqubit.pair_rdms(sd, probabilities, k, k % n + 1)
        cs = twoqubit.correlations_from_rdm(rdm)
        report = entanglement.concurrence_report(rdm, cs, spec, u / n)
        bres = bell.violation_measure(cs.g)
        if (j, delta, b) == (1.0, 1.0, 0.0):
            # the threshold and zero-temperature sections read only the
            # spectrum and the (1, 2) pair table, so the vectors are dropped
            isotropic[n] = replace(sd, eigvec_blocks=None)

        details = [f"{tag} T={t:g}" for t in temps]
        # the dense oracle, one Gibbs matrix at a time; the small ones are
        # kept for the full-space correlations
        rhos = []
        for r, (t, at) in enumerate(zip(temps, details)):
            rho = oracle.gibbs_state(full, float(t))
            col.record("gibbs_trace", abs(float(np.trace(rho).real) - 1.0), 1e-12, at)
            col.record("gibbs_hermitian", model.hermiticity_defect(rho), 1e-12, at)
            with threads_for(rho.shape[0]):
                rho_min = float(np.linalg.eigvalsh(rho).min())
            col.record("gibbs_positive", max(0.0, -rho_min), 1e-12, at)
            col.record("pair_rdm_routes",
                       float(np.max(np.abs(
                           oracle.reduce_to_pair(rho, 1, 2).matrix - rdm.matrix[r]))),
                       1e-12, at)
            if n <= 5:
                rhos.append(rho)
        if n <= 5:
            cs_full = oracle.correlations(np.stack(rhos), 1, 2)
            g_gap = np.abs(cs_full.g - cs.g).max(axis=(1, 2)).tolist()
            m_gap = np.abs(cs_full.m_per_site - cs.m_per_site).tolist()
            for r, at in enumerate(details):
                col.record("correlations_full_vs_rdm", max(g_gap[r], m_gap[r]), 1e-12, at)
            if b != 0.0:
                # the measure is a function of the correlation tensor alone;
                # feed it the independently computed full-space tensor
                field_gap = np.abs(bell.violation_measure(cs_full.g).measure - bres.measure)
                for r, at in enumerate(details):
                    col.record("bell_field_independence", field_gap[r], 1e-12, at)

        # the production stacks, row by row in temperature order
        u_rows, m_rows = u.tolist(), m.tolist()
        z_rows = rdm.z.tolist()
        g_zz = cs.g[:, 2, 2].tolist()
        relations = twoqubit.check_element_relations(rdm, cs)
        g_max = np.abs(cs.g).max(axis=(1, 2)).tolist()
        m_bar_gap = np.abs(rdm.m_bar - m / n).tolist()
        translation_gap = np.abs(rdm.matrix - rdm_shift.matrix).max(axis=(1, 2)).tolist()
        c_rows = report.wootters.tolist()
        x_rows, corr_rows, energy_rows = (
            getattr(report, name).tolist()
            for name in ("x_form", "correlation_form", "energy_form"))
        measure = bres.measure.tolist()
        for r, at in enumerate(details):
            if r:
                col.record("u_monotone", max(0.0, u_rows[r - 1] - u_rows[r]), 1e-12, at)
            if b == 0.0:
                col.record("u_nonpositive_b0", max(0.0, u_rows[r]), 1e-10, at)
            for rel, res in relations.items():
                col.record(f"element_relation_{rel}", res[r], 1e-10, at)
            col.record("g_bound", max(0.0, g_max[r] - 1.0), 1e-12, at)
            col.record("m_bar_vs_thermo", m_bar_gap[r], 1e-10, at)
            col.record("reflection_im_z", abs(z_rows[r].imag), 1e-10, at)
            col.record("pair_translation", translation_gap[r], 1e-10, at)

            # NaN marks a route whose precondition fails on that row
            for check, value, limit in (("route_x_form", x_rows[r], 1e-10),
                                        ("route_correlation", corr_rows[r], 1e-9),
                                        ("route_energy", energy_rows[r], 1e-9)):
                if not math.isnan(value):
                    col.record(check, abs(value - c_rows[r]), limit, at)
            if energy_rows[r] == 0.0:
                col.record("clamp_consistency", c_rows[r], 1e-9, at)

            if delta == 1.0 and b == 0.0:
                z = z_rows[r]
                col.record("prop1_magnetization", abs(m_rows[r]), 1e-10, at)
                col.record("prop1_im_z", abs(z.imag), 1e-10, at)
                col.record("prop3_u_nonpositive", max(0.0, u_rows[r]), 1e-10, at)
                if abs(z) > 1e-12:
                    col.require("prop3_z_sign", (z.real < 0) == (j > 0), at)
                col.record("z_energy_relation",
                           abs(z.real - u_rows[r] / (6.0 * j * n)), 1e-10, at)
                col.record("gzz_energy_relation",
                           abs(g_zz[r] - u_rows[r] / (3.0 * j * n)), 1e-10, at)
                if j < 0:
                    col.record("fm_concurrence_zero", c_rows[r], 1e-12, at)
                col.record("bell_xxx_closed_form",
                           abs(measure[r] - bell.violation_xxx(u_rows[r], j, n)), 1e-10, at)
                col.record("bell_c_vs_b",
                           abs(bell.concurrence_vs_violation(
                               measure[r], "afm" if j > 0 else "fm") - c_rows[r]),
                           1e-9, at)
                if measure[r] > 2.0:
                    col.require("bell_witness_direction", c_rows[r] > 0.0, at)

            if spec_index % 7 == 0 and len(sampled_tensors) < opts.sampled_states:
                sampled_tensors.append((at, cs.g[r]))

        if delta == 1.0 and b == 0.0 and j > 0:
            drops = [max(0.0, c_rows[k + 1] - c_rows[k]) for k in range(len(c_rows) - 1)]
            col.record("concurrence_monotone_afm", max(drops) if drops else 0.0,
                       1e-12, tag)

    # threshold machinery on a few antiferromagnetic isotropic rings
    def isotropic_ring(n: int) -> tuple[model.ModelSpec, spectral.SpectralDecomposition]:
        spec = model.ModelSpec.uniform(n, 1.0)
        sd = isotropic.get(n)
        return spec, spectral.decompose(spec) if sd is None else sd

    for n in (2, 4, 5):
        if n not in opts.n_values:
            continue
        spec, sd = isotropic_ring(n)
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
        spec1, sd1 = isotropic_ring(2)
        spec2 = model.ModelSpec.uniform(2, 2.0)
        t1 = threshold.find_threshold(spec1, sd1).t_c
        t2 = threshold.find_threshold(spec2, spectral.decompose(spec2)).t_c
        col.record("threshold_linear_in_j", abs(t2 - 2.0 * t1) / (2.0 * t1), 1e-6,
                   "N=2, J=1 vs J=2")

    # zero-temperature entanglement pattern
    for n in opts.n_values:
        spec, sd = isotropic_ring(n)
        c0 = entanglement.concurrence_wootters(
            twoqubit.pair_rdm_thermal(sd, 0.0, 1, 2)).wootters
        if n == 3:
            col.record("ground_state_n3_zero", c0, 1e-10, "N=3")
        else:
            col.require("ground_state_entangled", c0 > 1e-3, f"N={n} C={c0:.4g}")

    # seeded random CHSH frames never beat the Horodecki measure; no
    # sampled state, no frames drawn
    frames = bell.random_frames(opts.frames, opts.seed) if sampled_tensors else None
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
        # Hellmann-Feynman: the pair mode's sigma^z sigma^z sum over the
        # ring bonds against -(T/J) d(log Z)/d(delta) from values-only spectra
        rdm = twoqubit.pair_rdm_thermal(spectral.decompose(spec, pair=(1, 2)), t, 1, 2)
        zz = n * twoqubit.correlations_from_rdm(rdm).g[2, 2]
        col.record("derivative_zz", abs(zz - thermo.zz_from_log_z(spec, t)), 1e-5,
                   f"N={n} T={t:.3g}")

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
