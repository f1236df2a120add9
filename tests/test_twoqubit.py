import math

import numpy as np
import pytest

from heisenring import (
    TwoQubitRDM,
    check_element_relations,
    correlations,
    correlations_from_rdm,
    gibbs_state,
    pair_rdm_thermal,
    reduce_to_pair,
    run_sweep,
    thermo_point,
)
from helpers import SINGLET_RHO, cached_decompose


def test_maximally_mixed_any_pair():
    rho = np.eye(16, dtype=complex) / 16.0
    for pair in [(1, 2), (2, 4), (3, 1)]:
        rdm = reduce_to_pair(rho, *pair)
        assert np.max(np.abs(rdm.matrix - np.eye(4) / 4.0)) <= 1e-14
        assert rdm.u_plus == rdm.u_minus == rdm.w1 == rdm.w2 == 0.25
        assert rdm.z == 0.0


def test_singlet_elements():
    spec, sd = cached_decompose(2, 1.0)
    rdm = reduce_to_pair(gibbs_state(sd, 0.0), 1, 2)
    assert np.max(np.abs(rdm.matrix - SINGLET_RHO)) <= 1e-12
    assert abs(rdm.u_plus) <= 1e-12 and abs(rdm.u_minus) <= 1e-12
    assert abs(rdm.w1 - 0.5) <= 1e-12 and abs(rdm.w2 - 0.5) <= 1e-12
    assert abs(rdm.z - (-0.5)) <= 1e-12


def test_three_site_z_energy_identity():
    spec, sd = cached_decompose(3, 1.0)
    tp = thermo_point(sd, spec, 1.0)
    rdm = reduce_to_pair(gibbs_state(sd, 1.0), 1, 2)
    # z = U / (6 J N) with U = -3 tanh(3)
    assert abs(rdm.z.real - (-math.tanh(3.0) / 6.0)) <= 1e-10
    assert abs(rdm.z.real - tp.u / 18.0) <= 1e-12
    assert abs(rdm.z.imag) <= 1e-12


@pytest.mark.parametrize("n,j,delta,b,t", [
    (3, 1.0, 1.0, 0.0, 0.7),
    (4, -1.0, 0.5, 0.3, 1.5),
    (5, 1.0, 2.0, 1.0, 0.4),
])
def test_full_space_correlations_match_rdm(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rho = gibbs_state(sd, t)
    cs_full = correlations(rho, 1, 2)
    cs_rdm = correlations_from_rdm(reduce_to_pair(rho, 1, 2))
    assert np.max(np.abs(cs_full.g - cs_rdm.g)) <= 1e-12
    assert abs(cs_full.m_per_site - cs_rdm.m_per_site) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_isotropic_correlations(n):
    spec, sd = cached_decompose(n, 1.0)
    tp = thermo_point(sd, spec, 0.8)
    cs = correlations_from_rdm(pair_rdm_thermal(sd, 0.8, 1, 2))
    g = cs.g
    assert abs(g[0, 0] - g[1, 1]) <= 1e-10
    assert abs(g[0, 0] - g[2, 2]) <= 1e-10
    assert abs(g[0, 0] - tp.u / (3.0 * n)) <= 1e-10


def test_singlet_correlations():
    cs = correlations_from_rdm(TwoQubitRDM.from_matrix(SINGLET_RHO, (1, 2)))
    assert np.allclose(np.diag(cs.g), [-1.0, -1.0, -1.0], atol=1e-12)
    assert np.max(np.abs(cs.g - np.diag(np.diag(cs.g)))) <= 1e-12


def test_infinite_temperature_correlations_vanish():
    spec, sd = cached_decompose(4, 1.0)
    cs = correlations_from_rdm(pair_rdm_thermal(sd, 1e12, 1, 2))
    assert np.max(np.abs(cs.g)) <= 1e-10


@pytest.mark.parametrize("n,j,delta,b,t", [
    (4, 1.0, 1.0, 0.0, 1.0),
    (3, 1.0, 1.0, 0.0, 0.5),
    (4, 1.0, 2.0, 1.0, 1.0),
    (6, -1.0, 0.5, 0.2, 2.0),
])
def test_element_relations(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rdm = pair_rdm_thermal(sd, t, 1, 2)
    cs = correlations_from_rdm(rdm)
    for name, residual in check_element_relations(rdm, cs).items():
        assert residual <= 1e-10, (name, residual)


def test_z_is_real_for_isotropic_ring():
    spec, sd = cached_decompose(3, 1.0)
    rdm = pair_rdm_thermal(sd, 0.5, 1, 2)
    cs = correlations_from_rdm(rdm)
    assert abs(rdm.z.imag) <= 1e-12
    assert check_element_relations(rdm, cs)["im_z"] <= 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.5, 2.0])
def test_z_real_even_for_anisotropic_rings(delta):
    # reflection symmetry of the ring keeps <s+ s-> real away from delta = 1
    spec, sd = cached_decompose(5, 1.0, delta, 0.4)
    for t in (0.3, 2.0):
        assert abs(pair_rdm_thermal(sd, t, 1, 2).z.imag) <= 1e-10


@pytest.mark.parametrize("n,j", [(2, 1.0), (4, 1.0), (5, 1.0), (2, -1.0), (4, -1.0)])
def test_z_sign_tracks_exchange_sign(n, j):
    spec, sd = cached_decompose(n, j)
    for t in (0.2, 1.0, 5.0):
        z = pair_rdm_thermal(sd, t, 1, 2).z
        if abs(z) > 1e-12:
            assert (z.real < 0) == (j > 0)


@pytest.mark.parametrize("n,t", [(2, 0.5), (4, 1.0), (6, 0.3)])
def test_z_energy_relation_isotropic(n, t):
    spec, sd = cached_decompose(n, 1.0)
    tp = thermo_point(sd, spec, t)
    rdm = pair_rdm_thermal(sd, t, 1, 2)
    assert abs(rdm.z.real - tp.u / (6.0 * n)) <= 1e-10


def test_pair_translation_invariance():
    spec, sd = cached_decompose(6, 1.0, 0.5, 0.3)
    base = pair_rdm_thermal(sd, 0.7, 1, 2)
    for k in (2, 3, 5):
        shifted = pair_rdm_thermal(sd, 0.7, k, k % 6 + 1)
        assert np.max(np.abs(base.matrix - shifted.matrix)) <= 1e-10


def test_correlation_bound():
    for args in [(4, 1.0, 1.0, 0.0), (5, 1.0, 2.0, 1.0), (6, -1.0, 0.0, 0.0)]:
        spec, sd = cached_decompose(*args)
        for t in (0.1, 1.0):
            cs = correlations_from_rdm(pair_rdm_thermal(sd, t, 1, 2))
            assert np.max(np.abs(cs.g)) <= 1.0 + 1e-12


def test_fast_path_matches_partial_trace():
    spec, sd = cached_decompose(6, 1.0, 0.5, 0.4)
    for t in (0.2, 1.0, 8.0):
        rho = gibbs_state(sd, t)
        for pair in [(1, 2), (2, 5), (4, 1)]:
            direct = reduce_to_pair(rho, *pair)
            fast = pair_rdm_thermal(sd, t, *pair)
            assert np.max(np.abs(direct.matrix - fast.matrix)) <= 1e-12


def test_off_structure_norm_vanishes_when_sz_conserved():
    spec, sd = cached_decompose(5, 1.0, 0.5, 0.7)
    rdm = pair_rdm_thermal(sd, 0.5, 1, 2)
    assert rdm.off_structure_norm <= 1e-10


@pytest.mark.parametrize("n,j,delta,b,t", [
    (4, 1.0, 1.0, 0.0, 0.1), (5, -1.0, 0.5, 0.6, 1.0), (6, 1.0, 2.0, 0.0, 10.0),
])
def test_rdm_is_a_density_matrix(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rdm = pair_rdm_thermal(sd, t, 1, 2)
    assert abs(rdm.u_plus + rdm.w1 + rdm.w2 + rdm.u_minus - 1.0) <= 1e-12
    assert abs(np.trace(rdm.matrix) - 1.0) <= 1e-12
    assert np.max(np.abs(rdm.matrix - rdm.matrix.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rdm.matrix).min() >= -1e-12


def test_site_errors():
    rho = np.eye(8, dtype=complex) / 8.0
    with pytest.raises(ValueError):
        reduce_to_pair(rho, 2, 2)
    with pytest.raises(ValueError):
        reduce_to_pair(rho, 0, 1)
    with pytest.raises(ValueError):
        reduce_to_pair(rho, 1, 4)


def test_pair_slot_order():
    # site i goes to the first tensor slot: swapping the pair transposes
    # the one-site marginals
    spec, sd = cached_decompose(4, 1.0, 1.0, 0.9)
    a = pair_rdm_thermal(sd, 0.5, 1, 2).matrix
    b = pair_rdm_thermal(sd, 0.5, 2, 1).matrix
    first_a = a.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    second_b = b.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    assert np.max(np.abs(first_a - second_b)) <= 1e-12


def test_imaginary_correlation_rejected():
    # a non-Hermitian 4x4 input: the first offending component is named
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 3] = 0.1j
    with pytest.raises(ValueError, match="G_xx has imaginary part 1.000e-01"):
        correlations_from_rdm(TwoQubitRDM.from_matrix(m, (1, 2)))
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 0] += 1e-6j
    with pytest.raises(ValueError, match="G_zz"):
        correlations_from_rdm(TwoQubitRDM.from_matrix(m, (1, 2)))
    with pytest.raises(ValueError, match="G_zz"):
        correlations(np.kron(m, np.eye(2) / 2.0), 1, 2)
    # residues at or below 1e-8 are rounding noise and pass
    m[0, 0] = 0.25 + 1e-9j
    assert correlations_from_rdm(TwoQubitRDM.from_matrix(m, (1, 2))).g[2, 2] == 0.0


def test_sweep_computes_one_tensor_per_row(monkeypatch):
    # count every call, under whichever module name a caller imported it
    import heisenring
    original = heisenring.twoqubit.correlations_from_rdm
    calls = []

    def counted(rdm):
        calls.append(rdm)
        return original(rdm)

    for name in dir(heisenring):
        module = getattr(heisenring, name)
        if getattr(module, "correlations_from_rdm", None) is original:
            monkeypatch.setattr(module, "correlations_from_rdm", counted)
    rows = run_sweep(heisenring.ModelSpec.uniform(4, 1.0, 0.5, 0.2), np.linspace(0.1, 3.0, 7))
    assert len(rows) == 7
    assert len(calls) == 7
