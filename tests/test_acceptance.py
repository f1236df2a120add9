"""Acceptance suite: the closed-form results and engineering targets, one
test per criterion, each printing a PASS line with its measured margin."""

import math
import time

import numpy as np

from heisenring import (
    ModelSpec,
    concurrence_report,
    concurrence_vs_violation,
    concurrence_wootters,
    concurrence_xxx_energy,
    correlations_from_rdm,
    decompose,
    find_threshold,
    pair_rdms,
    thermo_grid,
    violation_measure,
    violation_xxx,
)
from heisenring.oracle import (
    build_hamiltonian,
    check_derivatives,
    diagonalize_full,
    frame_expectations,
    random_frames,
)
from heisenring.model import ring_coupling_matrices
from helpers import c_two_site, cached_decompose, log_z_two_site, u_three_site


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_01_two_site_closed_forms():
    start = time.perf_counter()
    spec, sd = cached_decompose(2, 1.0)
    worst_z, worst_c = 0.0, 0.0
    grid = thermo_grid(sd, np.geomspace(0.1, 100.0, 60))
    cs = concurrence_wootters(pair_rdms(grid, 1, 2)).wootters
    for t, log_z, c in zip(grid.temperature, grid.log_z, cs):
        beta = 1.0 / float(t)
        oracle = log_z_two_site(beta)
        worst_z = max(worst_z, abs(log_z - oracle) / abs(oracle))
        worst_c = max(worst_c, abs(c - c_two_site(beta)))
    elapsed = time.perf_counter() - start
    assert worst_z <= 1e-12
    assert worst_c <= 1e-10
    assert elapsed < 1.0
    report(1, f"N=2 log Z rel err {worst_z:.2e} (<=1e-12), "
              f"C err {worst_c:.2e} (<=1e-10), {elapsed:.3f}s (<1s)")


def test_criterion_02_two_site_threshold():
    spec, sd = cached_decompose(2, 1.0)
    res = find_threshold(spec)
    err = abs(res.t_c - 8.0 / math.log(3.0))
    assert err <= 1e-6
    report(2, f"t_c = {res.t_c:.8f}, |t_c - 8/ln3| = {err:.2e} (<=1e-6)")


def test_criterion_03_three_site():
    spec, sd = cached_decompose(3, 1.0)
    grid = thermo_grid(sd, np.geomspace(0.1, 100.0, 40))
    worst_u = max(abs(u - u_three_site(1.0 / float(t)))
                  for t, u in zip(grid.temperature, grid.u))
    rdm = pair_rdms(grid, 1, 2)
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / 3)
    worst_c = float(np.max([rep.wootters, rep.x_form, rep.correlation_form,
                            rep.energy_form]))
    assert worst_u <= 1e-10
    assert worst_c == 0.0
    report(3, f"N=3 U err {worst_u:.2e} (<=1e-10), all concurrence routes exactly 0")


def test_criterion_04_energy_route_agreement():
    start = time.perf_counter()
    grid = np.geomspace(0.05, 50.0, 40)
    worst = 0.0
    for n in range(2, 11):
        for j in (1.0, -1.0):
            spec, sd = cached_decompose(n, j)
            thermal = thermo_grid(sd, grid)
            c_w = concurrence_wootters(pair_rdms(thermal, 1, 2)).wootters
            c_e = concurrence_xxx_energy(thermal.u / n, j)
            worst = max(worst, float(np.max(np.abs(c_w - c_e))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 120.0
    report(4, f"N=2..10, J=+-1, 40 T points: max |C_wootters - C_energy| = "
              f"{worst:.2e} (<=1e-9), {elapsed:.1f}s (<120s)")


def test_criterion_05_ferromagnet_never_entangled():
    worst = 0.0
    for n in range(2, 11):
        spec, sd = cached_decompose(n, -1.0)
        grid = thermo_grid(sd, np.geomspace(0.05, 50.0, 40))
        c_w = concurrence_wootters(pair_rdms(grid, 1, 2)).wootters
        c_e = concurrence_xxx_energy(grid.u / n, -1.0)
        worst = max(worst, float(np.max(c_w)), float(np.max(c_e)))
    assert worst <= 1e-12
    report(5, f"FM J=-1, N=2..10: max concurrence {worst:.2e} (<=1e-12)")


def test_criterion_06_zero_field_isotropic_identities():
    worst_m, worst_imz, worst_u = 0.0, 0.0, 0.0
    sign_ok = True
    for n in range(2, 9):
        for j in (1.0, -1.0):
            spec, sd = cached_decompose(n, j)
            grid = thermo_grid(sd, np.geomspace(0.1, 20.0, 12))
            z = pair_rdms(grid, 1, 2).z
            worst_m = max(worst_m, float(np.max(np.abs(grid.m))))
            worst_imz = max(worst_imz, float(np.max(np.abs(z.imag))))
            worst_u = max(worst_u, float(np.max(grid.u)))
            signed = np.abs(z) > 1e-12
            sign_ok = sign_ok and bool(np.all((z.real[signed] < 0) == (j > 0)))
    assert worst_m <= 1e-10
    assert worst_imz <= 1e-10
    assert worst_u <= 1e-10
    assert sign_ok
    report(6, f"B=0 delta=1: |M| max {worst_m:.2e}, |Im z| max {worst_imz:.2e} "
              f"(<=1e-10); U max {worst_u:.2e} (<=1e-10); sign(z) = -sign(J)")


def test_criterion_07_bell_closed_form_and_frames():
    worst_b, worst_c = 0.0, 0.0
    states = []
    for n in range(2, 9):
        for j in (1.0, -1.0):
            spec, sd = cached_decompose(n, j)
            grid = thermo_grid(sd, np.geomspace(0.1, 20.0, 10))
            rdm = pair_rdms(grid, 1, 2)
            gs = correlations_from_rdm(rdm).g
            measures = violation_measure(gs).measure
            c_w = concurrence_wootters(rdm).wootters
            worst_b = max(worst_b, np.max(np.abs(measures - violation_xxx(grid.u, j, n))))
            worst_c = max(worst_c, np.max(np.abs(concurrence_vs_violation(measures, j) - c_w)))
            states.extend(gs)
    assert worst_b <= 1e-10
    assert worst_c <= 1e-9

    frames = random_frames(10_000, seed=20260811)
    picked = states[:: max(1, len(states) // 20)][:20]
    worst_excess = 0.0
    for g, measure in zip(picked, violation_measure(np.stack(picked)).measure):
        best = float(np.max(np.abs(frame_expectations(g, frames))))
        worst_excess = max(worst_excess, best - measure)
    assert worst_excess <= 1e-8
    report(7, f"Bell closed form err {worst_b:.2e} (<=1e-10); relation-to-C err "
              f"{worst_c:.2e} (<=1e-9); 10^4 frames x {len(picked)} states "
              f"excess {worst_excess:.2e} (<=1e-8)")


def test_criterion_08_anisotropy_and_field_oracles():
    worst = 0.0
    cases = [(delta, 0.0) for delta in (0.0, 0.5, 2.0)]
    cases += [(1.0, b) for b in (0.5, 1.0, 3.0)]
    for delta, b in cases:
        for n in (2, 4, 6):
            spec, sd = cached_decompose(n, 1.0, delta, b)
            grid = thermo_grid(sd, np.geomspace(0.1, 10.0, 20))
            rdm = pair_rdms(grid, 1, 2)
            rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / n)
            assert not np.isnan(rep.energy_form).any(), (delta, b)
            worst = max(worst, float(np.max(np.abs(rep.energy_form - rep.wootters))))
    assert worst <= 1e-9
    report(8, f"delta in {{0,0.5,2}} and B in {{0.5,1,3}}: formula vs Wootters "
              f"max err {worst:.2e} (<=1e-9)")


def test_criterion_09_ground_state_pattern():
    values = {}
    for n in (2, 3, 4, 5, 6, 7, 8):
        spec, sd = cached_decompose(n, 1.0)
        zero = thermo_grid(sd, [0.0])
        values[n] = concurrence_wootters(pair_rdms(zero, 1, 2)).wootters[0]
    for n in (2, 4, 5, 6, 7, 8):
        assert values[n] > 1e-3, (n, values[n])
    assert values[3] <= 1e-10
    report(9, "T=0 concurrence: " + ", ".join(
        f"N={n}: {values[n]:.4f}" for n in sorted(values)) + " (N=3 is 0)")


def test_criterion_10_thermodynamic_self_consistency():
    rng = np.random.default_rng(20260811)
    worst_u, worst_m = 0.0, 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        spec = ModelSpec.uniform(
            n,
            float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 1.0)),
        )
        t = float(rng.uniform(0.5, 5.0))
        u_res, m_res = check_derivatives(spec, t)
        worst_u = max(worst_u, u_res)
        worst_m = max(worst_m, m_res)
    assert worst_u <= 1e-5
    assert worst_m <= 1e-5

    worst_drop = 0.0
    for n, j, delta, b in [(4, 1.0, 1.0, 0.0), (5, -1.0, 0.5, 0.5),
                           (6, 1.0, 2.0, 0.0), (3, 1.0, 0.0, 1.0)]:
        spec, sd = cached_decompose(n, j, delta, b)
        u = thermo_grid(sd, np.geomspace(0.05, 50.0, 40)).u
        worst_drop = max(worst_drop, float(np.max(u[:-1] - u[1:])))
    assert worst_drop <= 1e-12
    report(10, f"finite-difference residuals: U {worst_u:.2e}, M {worst_m:.2e} "
               f"(<=1e-5); U(T) monotone (max drop {worst_drop:.2e})")


def test_criterion_11_sector_equivalence_and_scale():
    worst = 0.0
    for n in range(2, 11):
        spec = ModelSpec.uniform(n, 1.0, 0.5 if n % 2 else 1.0,
                                 0.3 if n % 3 == 0 else 0.0)
        h = build_hamiltonian(spec)
        full = diagonalize_full(h)
        sect = decompose(spec)
        worst = max(worst, float(np.max(np.abs(full.eigenvalues - sect.eigenvalues))))
    assert worst <= 1e-9

    # values-only, the uniform ring runs on momentum blocks; the same ring
    # written with general couplings takes the S_z-sector eigvalsh
    start = time.perf_counter()
    spec14 = ModelSpec.uniform(14, 1.0)
    sd14 = decompose(spec14, vectors=False)
    elapsed = time.perf_counter() - start
    ref14 = decompose(ModelSpec.general(*ring_coupling_matrices(spec14)),
                      vectors=False)
    assert elapsed < 60.0
    assert sd14.dim == 1 << 14
    # ground energy must sit in the zero-magnetization sector
    assert sd14.sector_labels[0] == 0.0
    worst14 = 0.0
    for k in range(15):
        label = (14 - 2 * k) / 2.0
        a = sd14.eigenvalues[sd14.sector_labels == label]
        b = ref14.eigenvalues[ref14.sector_labels == label]
        assert a.size == b.size == math.comb(14, k)
        worst14 = max(worst14, float(np.max(np.abs(a - b))))
    assert worst14 <= 1e-10
    report(11, f"sector path == full path for N<=10 (max dev {worst:.2e}); "
               f"N=14 momentum blocks in {elapsed:.1f}s (<60s) == sector blocks "
               f"(max dev {worst14:.2e}), E0 = {sd14.ground_energy:.6f}")
