import math
from dataclasses import fields, replace

import numpy as np
import pytest

from heisenring import (
    temperature_grid,
    ModelSpec,
    decompose,
    pair_rdms,
    run_sweep,
    thermo_grid,
)
from heisenring.oracle import (
    build_hamiltonian,
    check_derivatives,
    diagonalize_full,
    gibbs_state,
    zz_from_log_z,
)
from helpers import (
    SINGLET_RHO,
    cached_decompose,
    log_z_two_site,
    random_general_spec,
    u_three_site,
    u_two_site,
)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0, 10.0, 100.0])
def test_two_site_closed_forms(t):
    spec, sd = cached_decompose(2, 1.0)
    grid = thermo_grid(sd, [t])
    beta = 1.0 / t
    assert abs(grid.log_z[0] - log_z_two_site(beta)) <= 1e-12 * abs(log_z_two_site(beta))
    assert abs(grid.u[0] - u_two_site(beta)) <= 1e-10


@pytest.mark.parametrize("t", [0.2, 1.0, 5.0])
def test_three_site_internal_energy(t):
    spec, sd = cached_decompose(3, 1.0)
    grid = thermo_grid(sd, [t])
    assert abs(grid.u[0] - u_three_site(1.0 / t)) <= 1e-10
    columns = run_sweep(spec, np.array([t]))
    assert columns["U_per_site"][0] == columns["U"][0] / 3.0


@pytest.mark.parametrize("n,delta", [(2, 1.0), (4, 0.5), (5, 2.0)])
def test_infinite_temperature_limit(n, delta):
    spec, sd = cached_decompose(n, 1.0, delta)
    grid = thermo_grid(sd, [1e9])
    # traceless Hamiltonian: U -> tr(H)/2^n = 0
    assert abs(grid.u[0]) <= 1e-6
    assert abs(grid.log_z[0] - n * math.log(2.0)) <= 1e-6


def test_zero_temperature_singlet():
    spec, sd = cached_decompose(2, 1.0)
    rho = gibbs_state(sd, 0.0)
    assert np.max(np.abs(rho - SINGLET_RHO)) <= 1e-12


def test_zero_temperature_ferromagnetic_triplet():
    spec, sd = cached_decompose(2, -1.0)
    rho = gibbs_state(sd, 0.0)
    evals = np.linalg.eigvalsh(rho)
    assert np.allclose(sorted(evals), [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_infinite_temperature_state_is_maximally_mixed():
    spec, sd = cached_decompose(3, 1.0)
    rho = gibbs_state(sd, 1e12)
    assert np.max(np.abs(rho - np.eye(8) / 8.0)) <= 1e-12


@pytest.mark.parametrize("n,j,delta,b,t", [
    (4, 1.0, 1.0, 0.0, 0.7), (5, -1.0, 0.5, 0.3, 2.0), (6, 1.0, 2.0, 1.0, 0.2),
])
def test_gibbs_invariants(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rho = gibbs_state(sd, t)
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_magnetization_label_and_vector_paths_agree():
    spec = ModelSpec.uniform(4, 1.0, 0.5, 0.6)
    sd_full = diagonalize_full(build_hamiltonian(spec))  # no labels
    _, sd_sect = cached_decompose(4, 1.0, 0.5, 0.6)
    temps = [0.3, 1.0, 4.0]
    m_vec = thermo_grid(sd_full, temps).m
    m_lab = thermo_grid(sd_sect, temps).m
    assert np.all(np.abs(m_vec - m_lab) <= 1e-10)


@pytest.mark.parametrize("route", ["decompose", "diagonalize_full"])
def test_sz_breaking_magnetization_matches_dense_gibbs(route):
    # M from the eigenvectors needs N, which thermo_grid reads off sd.dim on
    # the parity blocks and on the one dense block alike; against
    # tr(rho sum_i sigma_iz) of the dense Gibbs matrix
    spec = random_general_spec(4, seed=5, field_b=0.4)
    assert not spec.conserves_sz
    sd = decompose(spec) if route == "decompose" else diagonalize_full(build_hamiltonian(spec))
    temps = [0.2, 0.5, 2.0]
    states = np.arange(spec.dim)
    sum_sz = spec.n_sites - 2.0 * np.bitwise_count(states).astype(np.int64)
    grid = thermo_grid(sd, temps)
    for t, m in zip(temps, grid.m):
        rho = gibbs_state(sd, t)
        assert abs(m - np.diagonal(rho).real @ sum_sz) <= 1e-12


def test_grid_carries_its_decomposition():
    # pair_rdms reads the decomposition off the grid; it stays out of the
    # grid's repr and equality
    _, sd = cached_decompose(3, 1.0)
    grid = thermo_grid(sd, [0.5])
    assert grid.decomposition is sd
    (field,) = (f for f in fields(grid) if f.name == "decomposition")
    assert not field.repr and not field.compare


def test_derivative_check_three_site():
    u_res, m_res = check_derivatives(ModelSpec.uniform(3, 1.0), 1.0)
    assert u_res <= 1e-5
    assert m_res <= 1e-5


def test_derivative_check_anisotropic_field():
    u_res, m_res = check_derivatives(ModelSpec.uniform(4, 1.0, 0.5, 0.3), 2.0)
    assert u_res <= 1e-5
    assert m_res <= 1e-5


def test_derivative_check_is_values_only(monkeypatch):
    # log Z, U and the label-based M need no eigenvectors
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    u_res, m_res = check_derivatives(ModelSpec.uniform(5, -1.2, 0.7, 0.4), 1.5)
    assert u_res <= 1e-5
    assert m_res <= 1e-5


def test_derivative_check_sz_breaking_spec():
    # no sector labels: M comes from the eigenvectors of the main spectrum
    u_res, m_res = check_derivatives(random_general_spec(4, seed=11, field_b=0.3), 1.0)
    assert u_res <= 1e-5
    assert m_res <= 1e-5


@pytest.mark.parametrize("n", [2, 4])
def test_free_spins_paramagnet(n):
    # J = 0, B = 1: independent spins give M = -N tanh(beta)
    spec, sd = cached_decompose(n, 0.0, 1.0, 1.0)
    temps = np.array([0.5, 1.0, 2.0])
    m = thermo_grid(sd, temps).m
    assert np.all(np.abs(m - (-n * np.tanh(1.0 / temps))) <= 1e-8)


@pytest.mark.parametrize("n,j,delta,b", [(4, 1.0, 1.0, 0.0), (5, -1.0, 0.5, 0.5)])
def test_internal_energy_monotone(n, j, delta, b):
    spec, sd = cached_decompose(n, j, delta, b)
    grid = np.geomspace(0.05, 50.0, 30)
    u_values = thermo_grid(sd, grid).u
    assert all(b2 >= a2 - 1e-12 for a2, b2 in zip(u_values, u_values[1:]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_vanishing_magnetization_isotropic(n):
    spec, sd = cached_decompose(n, 1.0)
    assert np.all(np.abs(thermo_grid(sd, [0.1, 1.0, 10.0]).m) <= 1e-10)


def test_low_temperature_stability():
    spec, sd = cached_decompose(5, 1.0, 2.0, 0.3)
    grid = thermo_grid(sd, [1e-8, 0.0])
    assert np.all(np.isfinite([grid.u[0], grid.m[0], grid.log_z[0]]))
    assert abs(grid.u[0] - grid.u[1]) <= 1e-6
    assert abs(grid.m[0] - grid.m[1]) <= 1e-6


@pytest.mark.parametrize("t", [1e-20, 1e-300])
def test_degenerate_ground_level_at_tiny_temperature(t):
    # the N = 3 ring has a 4-fold ground level whose eigenvalues differ by
    # rounding (~1e-15); divided by a tiny T that splitting must not give
    # part of the level zero weight.  The momentum blocks scatter the level
    # over four blocks.
    spec, sd = cached_decompose(3, 1.0)
    values_only = decompose(spec, vectors=False)
    for d in (sd, values_only):
        assert d.ground_degeneracy == 4
        cold_zero = thermo_grid(d, [t, 0.0])
        assert abs(cold_zero.u[0] - cold_zero.u[1]) <= 1e-12
        assert abs(cold_zero.m[0] - cold_zero.m[1]) <= 1e-12
        # log Z is -E0/T + log 4; with E0 shifted to 0 the log 4 is resolvable
        shifted = replace(d, eigenvalues=d.eigenvalues - d.eigenvalues[0])
        log_z = thermo_grid(shifted, [t, 0.0]).log_z
        assert abs(log_z[0] - log_z[1]) <= 1e-12
    cold_rdm, zero_rdm = pair_rdms(thermo_grid(sd, [t, 0.0]),
                                   1, 2).matrix
    assert np.max(np.abs(cold_rdm - zero_rdm)) <= 1e-12


def test_nondegenerate_ground_weights_unchanged():
    # the ground-level rule leaves a single ground state's weights alone
    spec, sd = cached_decompose(4, 1.0, 0.5, 0.3)
    assert sd.ground_degeneracy == 1
    temps = (1e-3, 0.7, 40.0)
    for t, p in zip(temps, thermo_grid(sd, temps).probabilities):
        w = np.exp(-(sd.eigenvalues - sd.eigenvalues[0]) / t)
        assert np.array_equal(p, w / w.sum())


def test_deep_low_temperature_log_z():
    spec, sd = cached_decompose(2, 1.0)
    t = 1e-3  # beta |E| = 6000: raw exponentials would overflow
    log_z = thermo_grid(sd, [t]).log_z[0]
    assert abs(log_z - log_z_two_site(1.0 / t)) <= 1e-12 * log_z_two_site(1.0 / t)


def test_negative_temperature_rejected():
    spec, sd = cached_decompose(2, 1.0)
    with pytest.raises(ValueError):
        thermo_grid(sd, [-0.1])
    with pytest.raises(ValueError):
        check_derivatives(spec, 0.0)


def test_nan_temperature_rejected():
    spec, sd = cached_decompose(2, 1.0)
    with pytest.raises(ValueError, match="temperature must be >= 0"):
        thermo_grid(sd, [math.nan])
    with pytest.raises(ValueError, match="temperature must be >= 0"):
        thermo_grid(sd, [1.0, math.nan])


def test_temperature_grid_rejects_non_finite():
    for start, stop in ((math.inf, 1.0), (0.1, math.nan), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            temperature_grid(start, stop, 3)
        with pytest.raises(ValueError, match="finite"):
            temperature_grid(abs(start), stop, 3, "log")


def test_m_bar_matches_pair_rdm():
    spec, sd = cached_decompose(5, 1.0, 2.0, 0.8)
    grid = thermo_grid(sd, [0.2, 1.0, 5.0])
    rdm = pair_rdms(grid, 1, 2)
    assert np.all(np.abs(grid.m / 5 - rdm.m_bar) <= 1e-10)


@pytest.mark.parametrize("n,j,delta,b,t", [
    (2, 1.0, 1.0, 0.0, 0.7),
    (4, -1.3, 0.5, 0.2, 1.5),
    (5, 0.8, 0.0, 0.4, 0.6),
    (6, 2.0, 2.0, 0.3, 3.0),
])
def test_zz_from_log_z_matches_dense_gibbs(n, j, delta, b, t):
    # Hellmann-Feynman against <sum_bonds sigma^z sigma^z> of the dense
    # Gibbs matrix, whose diagonal the bond sum weights; at N = 2 the
    # periodic sum visits the one bond twice, as the roll does
    spec = ModelSpec.uniform(n, j, delta, b)
    states = np.arange(1 << n)
    spins = 1 - 2 * ((states[:, None] >> np.arange(n)) & 1)
    zz = (spins * np.roll(spins, 1, axis=1)).sum(axis=1)
    rho = gibbs_state(diagonalize_full(build_hamiltonian(spec)), t)
    assert abs(zz_from_log_z(spec, t) - np.diagonal(rho) @ zz) <= 1e-6


def test_zz_from_log_z_rejects_its_preconditions():
    for spec, t in ((ModelSpec.uniform(3, 1.0), 0.0), (ModelSpec.uniform(3, 0.0), 1.0)):
        with pytest.raises(ValueError):
            zz_from_log_z(spec, t)
