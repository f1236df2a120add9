import math

import numpy as np
import pytest

from heisenring import (
    temperature_grid,
    ModelSpec,
    build_hamiltonian,
    check_derivatives,
    diagonalize_full,
    gibbs_state,
    pair_rdm_thermal,
    thermo_point,
)
from heisenring.thermo import thermal_probabilities
from helpers import (
    SINGLET_RHO,
    cached_decompose,
    log_z_two_site,
    u_three_site,
    u_two_site,
)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0, 10.0, 100.0])
def test_two_site_closed_forms(t):
    spec, sd = cached_decompose(2, 1.0)
    tp = thermo_point(sd, spec, t)
    beta = 1.0 / t
    assert abs(tp.log_z - log_z_two_site(beta)) <= 1e-12 * abs(log_z_two_site(beta))
    assert abs(tp.u - u_two_site(beta)) <= 1e-10


@pytest.mark.parametrize("t", [0.2, 1.0, 5.0])
def test_three_site_internal_energy(t):
    spec, sd = cached_decompose(3, 1.0)
    tp = thermo_point(sd, spec, t)
    assert abs(tp.u - u_three_site(1.0 / t)) <= 1e-10
    assert tp.u_per_site == tp.u / 3.0


@pytest.mark.parametrize("n,delta", [(2, 1.0), (4, 0.5), (5, 2.0)])
def test_infinite_temperature_limit(n, delta):
    spec, sd = cached_decompose(n, 1.0, delta)
    tp = thermo_point(sd, spec, 1e9)
    # traceless Hamiltonian: U -> tr(H)/2^n = 0
    assert abs(tp.u) <= 1e-6
    assert abs(tp.log_z - n * math.log(2.0)) <= 1e-6


def test_zero_temperature_singlet():
    spec, sd = cached_decompose(2, 1.0)
    rho = gibbs_state(sd, 0.0)
    assert np.max(np.abs(rho.matrix - SINGLET_RHO)) <= 1e-12


def test_zero_temperature_ferromagnetic_triplet():
    spec, sd = cached_decompose(2, -1.0)
    rho = gibbs_state(sd, 0.0)
    evals = np.linalg.eigvalsh(rho.matrix)
    assert np.allclose(sorted(evals), [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_infinite_temperature_state_is_maximally_mixed():
    spec, sd = cached_decompose(3, 1.0)
    rho = gibbs_state(sd, 1e12)
    assert np.max(np.abs(rho.matrix - np.eye(8) / 8.0)) <= 1e-12


@pytest.mark.parametrize("n,j,delta,b,t", [
    (4, 1.0, 1.0, 0.0, 0.7), (5, -1.0, 0.5, 0.3, 2.0), (6, 1.0, 2.0, 1.0, 0.2),
])
def test_gibbs_invariants(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rho = gibbs_state(sd, t).matrix
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_magnetization_label_and_vector_paths_agree():
    spec = ModelSpec.uniform(4, 1.0, 0.5, 0.6)
    sd_full = diagonalize_full(build_hamiltonian(spec))  # no labels
    _, sd_sect = cached_decompose(4, 1.0, 0.5, 0.6)
    for t in (0.3, 1.0, 4.0):
        m_vec = thermo_point(sd_full, spec, t).m
        m_lab = thermo_point(sd_sect, spec, t).m
        assert abs(m_vec - m_lab) <= 1e-10


def test_derivative_check_three_site():
    u_res, m_res = check_derivatives(ModelSpec.uniform(3, 1.0), 1.0)
    assert u_res <= 1e-5
    assert m_res <= 1e-5


def test_derivative_check_anisotropic_field():
    u_res, m_res = check_derivatives(ModelSpec.uniform(4, 1.0, 0.5, 0.3), 2.0)
    assert u_res <= 1e-5
    assert m_res <= 1e-5


@pytest.mark.parametrize("n", [2, 4])
def test_free_spins_paramagnet(n):
    # J = 0, B = 1: independent spins give M = -N tanh(beta)
    spec, sd = cached_decompose(n, 0.0, 1.0, 1.0)
    for t in (0.5, 1.0, 2.0):
        tp = thermo_point(sd, spec, t)
        assert abs(tp.m - (-n * math.tanh(1.0 / t))) <= 1e-8


@pytest.mark.parametrize("n,j,delta,b", [(4, 1.0, 1.0, 0.0), (5, -1.0, 0.5, 0.5)])
def test_internal_energy_monotone(n, j, delta, b):
    spec, sd = cached_decompose(n, j, delta, b)
    grid = np.geomspace(0.05, 50.0, 30)
    u_values = [thermo_point(sd, spec, t).u for t in grid]
    assert all(b2 >= a2 - 1e-12 for a2, b2 in zip(u_values, u_values[1:]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_vanishing_magnetization_isotropic(n):
    spec, sd = cached_decompose(n, 1.0)
    for t in (0.1, 1.0, 10.0):
        assert abs(thermo_point(sd, spec, t).m) <= 1e-10


def test_low_temperature_stability():
    spec, sd = cached_decompose(5, 1.0, 2.0, 0.3)
    cold = thermo_point(sd, spec, 1e-8)
    zero = thermo_point(sd, spec, 0.0)
    assert math.isfinite(cold.u) and math.isfinite(cold.m) and math.isfinite(cold.log_z)
    assert abs(cold.u - zero.u) <= 1e-6
    assert abs(cold.m - zero.m) <= 1e-6
    assert zero.beta == math.inf


def test_deep_low_temperature_log_z():
    spec, sd = cached_decompose(2, 1.0)
    t = 1e-3  # beta |E| = 6000: raw exponentials would overflow
    tp = thermo_point(sd, spec, t)
    assert abs(tp.log_z - log_z_two_site(1.0 / t)) <= 1e-12 * log_z_two_site(1.0 / t)


def test_negative_temperature_rejected():
    spec, sd = cached_decompose(2, 1.0)
    with pytest.raises(ValueError):
        thermo_point(sd, spec, -0.1)
    with pytest.raises(ValueError):
        check_derivatives(spec, 0.0)


def test_nan_temperature_rejected():
    spec, sd = cached_decompose(2, 1.0)
    with pytest.raises(ValueError, match="temperature must be >= 0"):
        thermal_probabilities(sd, math.nan)
    with pytest.raises(ValueError):
        thermo_point(sd, spec, math.nan)


def test_temperature_grid_rejects_non_finite():
    for start, stop in ((math.inf, 1.0), (0.1, math.nan), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            temperature_grid(start, stop, 3)
        with pytest.raises(ValueError, match="finite"):
            temperature_grid(abs(start), stop, 3, "log")


def test_m_bar_matches_pair_rdm():
    spec, sd = cached_decompose(5, 1.0, 2.0, 0.8)
    for t in (0.2, 1.0, 5.0):
        tp = thermo_point(sd, spec, t)
        rdm = pair_rdm_thermal(sd, t, 1, 2)
        assert abs(tp.m_per_site - rdm.m_bar) <= 1e-10
