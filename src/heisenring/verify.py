"""One-shot verification suite over a grid of ring models.

Runs every library invariant and closed-form identity on a configurable
(N, delta, B, J, T) grid and reports the worst residual seen per named
check.  Deterministic for a fixed seed, including the random-frame CHSH
probes.  The CLI `verify` subcommand renders this report and exits nonzero
if any check fails.

The production side of each grid spec runs on the sector eigenvectors:
one thermo_grid over the whole temperature grid, one pair_rdms stack per
site pair from that grid, and one correlation, concurrence and Bell
evaluation on the stack; the probes are a grid of their own.  A sweep of a
uniform ring reads its pair table from the pair mode of
spectral.decompose instead; verify holds that mode against the sector
table only on the bond cases, one or two specs per N, for a ring bond and
for a pair half the ring apart, and against a derivative of log Z in the
anisotropy.  The dense oracle (heisenring.oracle) builds one Gibbs matrix
at a time, so an N = 12 grid never holds a stack of 2^N x 2^N matrices.
Each check records the worst entry of its residual stack, the first in
temperature order on a tie.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import bell, entanglement, model, oracle, spectral, thermo, threshold, twoqubit
from ._blas import threads_for

TSIRELSON = bell.TSIRELSON
# random CHSH frames drawn, and grid states they probe
FRAMES = 10_000
SAMPLED_STATES = 20
# the high-temperature limit, then the near-zero stability probe and T = 0:
# each spec's probe grid, in this order
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("'seed' must be a non-negative integer")


class _Collector:
    """Tracks the worst residual per named check."""

    def __init__(self):
        self.worst: dict[str, tuple[float, str]] = {}
        self.thresholds: dict[str, float] = {}

    def record(self, name: str, residual: float, threshold: float, detail: str = ""):
        # a NaN is the worst residual and stays; otherwise the first largest
        self.thresholds[name] = threshold
        prev = self.worst.get(name)
        if (prev is None or residual > prev[0]
                or (math.isnan(residual) and not math.isnan(prev[0]))):
            self.worst[name] = (float(residual), detail)

    def record_worst(self, name: str, residuals: np.ndarray, threshold: float,
                     details: Sequence[str]):
        """Record the worst entry of a residual stack, with the detail at its index.

        The first NaN, else the first largest entry; an empty stack records nothing.
        """
        if len(residuals):
            worst = int(np.argmax(residuals))
            self.record(name, residuals[worst], threshold, details[worst])

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

        # the production side runs once on the whole temperature grid; the
        # high-temperature limit and the near-zero stability probe are a
        # grid of their own
        grid = thermo.thermo_grid(sd, temps)
        probe = thermo.thermo_grid(sd, PROBE_TEMPERATURES)
        u_hot, u_cold, u_zero = probe.u
        m_cold, m_zero = probe.m[1:]
        # U ~ -<H^2>/T at high T, and <H^2> grows with both J^2 and B^2
        col.record("u_high_t_limit", abs(u_hot) / (n * max(abs(j), abs(b))), 1e-3, tag)
        stable = (math.isfinite(u_cold) and math.isfinite(m_cold)
                  and abs(u_cold - u_zero) <= 1e-6
                  and abs(m_cold - m_zero) <= 1e-6)
        col.require("low_t_stability", stable, tag)

        u, m = grid.u, grid.m
        details = np.array([f"{tag} T={t:g}" for t in temps], dtype=object)
        rdm = twoqubit.pair_rdms(grid, 1, 2)
        if (delta, b, j) in bond_cases:
            # the pair mode's table from (S_z label, ZZ_n, XY_n) on the
            # momentum blocks, against the table from the sector
            # eigenvectors: a ring bond, and from N = 4 a pair at distance
            # N // 2, which is no bond
            pair_checks = [("bond_route_vs_pair_table", (1, 2), rdm)]
            if n >= 4:
                far = (1, 1 + n // 2)
                pair_checks.append(("distance_route_vs_pair_table", far,
                                    twoqubit.pair_rdms(grid, *far)))
            for name, pair, want in pair_checks:
                got = twoqubit.pair_rdms(
                    thermo.thermo_grid(spectral.decompose(spec, pair=pair), temps), *pair)
                col.record_worst(name, np.abs(got.matrix - want.matrix).max(axis=(1, 2)),
                                 1e-12, details)
        k = 1 + n // 2  # some other bond (k, k+1) around the ring
        rdm_shift = twoqubit.pair_rdms(grid, k, k % n + 1)
        cs = twoqubit.correlations_from_rdm(rdm)
        report = entanglement.concurrence_report(rdm, cs, spec, u / n)
        measure = bell.violation_measure(cs.g).measure
        if (j, delta, b) == (1.0, 1.0, 0.0):
            isotropic[n] = sd

        # the dense oracle, one Gibbs matrix at a time; the small ones are
        # kept for the full-space correlations
        rhos = []
        for t, pair_rho, at in zip(temps, rdm.matrix, details):
            rho = oracle.gibbs_state(full, float(t))
            col.record("gibbs_trace", abs(float(np.trace(rho).real) - 1.0), 1e-12, at)
            col.record("gibbs_hermitian", model.hermiticity_defect(rho), 1e-12, at)
            with threads_for(rho.shape[0]):
                rho_min = float(np.linalg.eigvalsh(rho).min())
            col.record("gibbs_positive", float(np.maximum(-rho_min, 0.0)), 1e-12, at)
            col.record("pair_rdm_routes",
                       float(np.max(np.abs(
                           oracle.reduce_to_pair(rho[None], 1, 2).matrix[0] - pair_rho))),
                       1e-12, at)
            if n <= 5:
                rhos.append(rho)
        if n <= 5:
            cs_full = oracle.correlations(np.stack(rhos), 1, 2)
            col.record_worst("correlations_full_vs_rdm", np.maximum(
                np.abs(cs_full.g - cs.g).max(axis=(1, 2)),
                np.abs(cs_full.m_per_site - cs.m_per_site)), 1e-12, details)
            if b != 0.0:
                # the measure is a function of the correlation tensor alone;
                # feed it the independently computed full-space tensor
                col.record_worst("bell_field_independence", np.abs(
                    bell.violation_measure(cs_full.g).measure - measure), 1e-12, details)

        # the production stacks; np.maximum(x, 0.0) keeps a NaN, and maps -0.0 to 0.0
        col.record_worst("u_monotone", np.maximum(u[:-1] - u[1:], 0.0), 1e-12, details[1:])
        if b == 0.0:
            col.record_worst("u_nonpositive_b0", np.maximum(u, 0.0), 1e-10, details)
        for rel, res in twoqubit.check_element_relations(rdm, cs).items():
            col.record_worst(f"element_relation_{rel}", res, 1e-10, details)
        col.record_worst("g_bound", np.maximum(np.abs(cs.g).max(axis=(1, 2)) - 1.0, 0.0),
                         1e-12, details)
        col.record_worst("m_bar_vs_thermo", np.abs(rdm.m_bar - m / n), 1e-10, details)
        col.record_worst("reflection_im_z", np.abs(rdm.z.imag), 1e-10, details)
        col.record_worst("pair_translation",
                         np.abs(rdm.matrix - rdm_shift.matrix).max(axis=(1, 2)), 1e-10, details)

        c = report.wootters
        # NaN marks a route whose precondition fails on that row
        for check, route, limit in (("route_x_form", report.x_form, 1e-10),
                                    ("route_correlation", report.correlation_form, 1e-9),
                                    ("route_energy", report.energy_form, 1e-9)):
            present = ~np.isnan(route)
            col.record_worst(check, np.abs(route - c)[present], limit, details[present])
        clamped = report.energy_form == 0.0
        col.record_worst("clamp_consistency", c[clamped], 1e-9, details[clamped])

        if delta == 1.0 and b == 0.0:
            z = rdm.z
            col.record_worst("prop1_magnetization", np.abs(m), 1e-10, details)
            col.record_worst("prop1_im_z", np.abs(z.imag), 1e-10, details)
            col.record_worst("prop3_u_nonpositive", np.maximum(u, 0.0), 1e-10, details)
            # boolean checks as in require: residual 1 on failure
            signed = np.hypot(z.real, z.imag) > 1e-12  # |z| as abs(complex) computes it
            sign_fails = np.where((z.real < 0) == (j > 0), 0.0, 1.0)
            col.record_worst("prop3_z_sign", sign_fails[signed], 0.5, details[signed])
            col.record_worst("z_energy_relation", np.abs(z.real - u / (6.0 * j * n)),
                             1e-10, details)
            col.record_worst("gzz_energy_relation", np.abs(cs.g[:, 2, 2] - u / (3.0 * j * n)),
                             1e-10, details)
            if j < 0:
                col.record_worst("fm_concurrence_zero", c, 1e-12, details)
            col.record_worst("bell_xxx_closed_form",
                             np.abs(measure - bell.violation_xxx(u, j, n)), 1e-10, details)
            col.record_worst("bell_c_vs_b",
                             np.abs(bell.concurrence_vs_violation(measure, j) - c), 1e-9, details)
            violating = measure > 2.0
            col.record_worst("bell_witness_direction", np.where(c > 0.0, 0.0, 1.0)[violating],
                             0.5, details[violating])
            if j > 0:
                col.record("concurrence_monotone_afm",
                           float(np.maximum(np.diff(c), 0.0).max(initial=0.0)), 1e-12, tag)

        if spec_index % 7 == 0:
            take = SAMPLED_STATES - len(sampled_tensors)
            sampled_tensors.extend(zip(details[:take], cs.g[:take]))

    # threshold machinery on a few antiferromagnetic isotropic rings
    def isotropic_ring(n: int) -> spectral.SpectralDecomposition:
        sd = isotropic.get(n)
        return spectral.decompose(model.ModelSpec.uniform(n, 1.0)) if sd is None else sd

    found = {n: threshold.find_threshold(model.ModelSpec.uniform(n, 1.0))
             for n in (2, 4, 5) if n in opts.n_values}
    for n, res in found.items():
        col.require("threshold_found", res.status == threshold.STATUS_FOUND, f"N={n}")
        if res.status == threshold.STATUS_FOUND:
            col.record("threshold_u_of_n", abs(res.u_of_n - 1.0), 1e-7, f"N={n}")
            near = thermo.thermo_grid(isotropic_ring(n),
                                      [res.t_c * (1 - 1e-3), res.t_c * (1 + 1e-3)])
            below, above = entanglement.concurrence_wootters(
                twoqubit.pair_rdms(near, 1, 2)).wootters
            col.require("threshold_two_sided", below > 0.0 and above == 0.0, f"N={n}")
    if 2 in found:
        t1 = found[2].t_c
        t2 = threshold.find_threshold(model.ModelSpec.uniform(2, 2.0)).t_c
        col.record("threshold_linear_in_j", abs(t2 - 2.0 * t1) / (2.0 * t1), 1e-6,
                   "N=2, J=1 vs J=2")

    # zero-temperature entanglement pattern
    for n in opts.n_values:
        zero = thermo.thermo_grid(isotropic_ring(n), [0.0])
        c0 = entanglement.concurrence_wootters(twoqubit.pair_rdms(zero, 1, 2)).wootters[0]
        if n == 3:
            col.record("ground_state_n3_zero", c0, 1e-10, "N=3")
        else:
            col.require("ground_state_entangled", c0 > 1e-3, f"N={n} C={c0:.4g}")

    # seeded random CHSH frames never beat the Horodecki measure; no
    # sampled state, no frames drawn
    if sampled_tensors:
        tags, gs = zip(*sampled_tensors)
        frames = bell.random_frames(FRAMES, opts.seed)
        for tag, g, measure in zip(tags, gs, bell.violation_measure(np.stack(gs)).measure):
            best = float(np.max(np.abs(bell.frame_expectations(g, frames))))
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
        rdm = twoqubit.pair_rdms(
            thermo.thermo_grid(spectral.decompose(spec, pair=(1, 2)), [t]), 1, 2)
        zz = n * twoqubit.correlations_from_rdm(rdm).g[0, 2, 2]
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
