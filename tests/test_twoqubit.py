import math

import numpy as np
import pytest

from heisenring import (
    ModelSpec,
    TwoQubitRDM,
    correlations_from_rdm,
    decompose,
    pair_rdms,
    run_sweep,
    thermo_grid,
)
from heisenring import twoqubit
from heisenring.model import ring_coupling_matrices
from heisenring.oracle import (
    build_hamiltonian,
    check_element_relations,
    correlations,
    diagonalize_full,
    gibbs_state,
    reduce_to_pair,
)
from heisenring.twoqubit import _pair_table
from helpers import SINGLET_RHO, cached_decompose, eigenvector_matrix, random_general_spec

# (a, b) entries of a pair RDM whose two basis states differ in S_z
SZ_FORBIDDEN = np.array([bin(a).count("1") != bin(b).count("1")
                         for a in range(4) for b in range(4)])
# (a, b) entries whose states differ in spin-flip parity lie off the X pattern
X_PATTERN = np.array([bin(a ^ b).count("1") % 2 == 0
                      for a in range(4) for b in range(4)])


def test_maximally_mixed_any_pair():
    rho = np.eye(16, dtype=complex)[None] / 16.0
    for pair in [(1, 2), (2, 4), (3, 1)]:
        rdm = reduce_to_pair(rho, *pair)
        assert np.max(np.abs(rdm.matrix - np.eye(4) / 4.0)) <= 1e-14
        for element in (rdm.u_plus, rdm.u_minus, rdm.w1, rdm.w2):
            assert element.tolist() == [0.25]
        assert rdm.z.tolist() == [0.0]


def test_singlet_elements():
    spec, sd = cached_decompose(2, 1.0)
    rdm = reduce_to_pair(gibbs_state(sd, 0.0)[None], 1, 2)
    assert np.max(np.abs(rdm.matrix[0] - SINGLET_RHO)) <= 1e-12
    assert abs(rdm.u_plus[0]) <= 1e-12 and abs(rdm.u_minus[0]) <= 1e-12
    assert abs(rdm.w1[0] - 0.5) <= 1e-12 and abs(rdm.w2[0] - 0.5) <= 1e-12
    assert abs(rdm.z[0] - (-0.5)) <= 1e-12


def test_three_site_z_energy_identity():
    spec, sd = cached_decompose(3, 1.0)
    u = thermo_grid(sd, [1.0]).u[0]
    z = reduce_to_pair(gibbs_state(sd, 1.0)[None], 1, 2).z[0]
    # z = U / (6 J N) with U = -3 tanh(3)
    assert abs(z.real - (-math.tanh(3.0) / 6.0)) <= 1e-10
    assert abs(z.real - u / 18.0) <= 1e-12
    assert abs(z.imag) <= 1e-12


@pytest.mark.parametrize("n,j,delta,b,t", [
    (3, 1.0, 1.0, 0.0, 0.7),
    (4, -1.0, 0.5, 0.3, 1.5),
    (5, 1.0, 2.0, 1.0, 0.4),
])
def test_full_space_correlations_match_rdm(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rho = gibbs_state(sd, t)[None]
    cs_full = correlations(rho, 1, 2)
    cs_rdm = correlations_from_rdm(reduce_to_pair(rho, 1, 2))
    assert np.max(np.abs(cs_full.g - cs_rdm.g)) <= 1e-12
    assert abs(cs_full.m_per_site[0] - cs_rdm.m_per_site[0]) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_isotropic_correlations(n):
    spec, sd = cached_decompose(n, 1.0)
    grid = thermo_grid(sd, [0.8])
    cs = correlations_from_rdm(pair_rdms(grid, 1, 2))
    g = cs.g[0]
    assert abs(g[0, 0] - g[1, 1]) <= 1e-10
    assert abs(g[0, 0] - g[2, 2]) <= 1e-10
    assert abs(g[0, 0] - grid.u[0] / (3.0 * n)) <= 1e-10


def test_singlet_correlations():
    g = correlations_from_rdm(TwoQubitRDM.from_matrix(SINGLET_RHO[None], (1, 2))).g[0]
    assert np.allclose(np.diag(g), [-1.0, -1.0, -1.0], atol=1e-12)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) <= 1e-12


def test_infinite_temperature_correlations_vanish():
    spec, sd = cached_decompose(4, 1.0)
    cs = correlations_from_rdm(pair_rdms(thermo_grid(sd, [1e12]),
                                         1, 2))
    assert np.max(np.abs(cs.g)) <= 1e-10


@pytest.mark.parametrize("n,j,delta,b,t", [
    (4, 1.0, 1.0, 0.0, 1.0),
    (3, 1.0, 1.0, 0.0, 0.5),
    (4, 1.0, 2.0, 1.0, 1.0),
    (6, -1.0, 0.5, 0.2, 2.0),
])
def test_element_relations(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rdm = pair_rdms(thermo_grid(sd, [t]), 1, 2)
    cs = correlations_from_rdm(rdm)
    for name, residual in check_element_relations(rdm, cs).items():
        assert residual[0] <= 1e-10, (name, residual)


@pytest.mark.parametrize("temperatures", [(1.0,), (0.2, 3.0), (0.2, 1.0, 3.0)])
def test_element_relations_of_a_stack_match_each_row(temperatures):
    # a stacked call once read g[2, 2] as the third state's third row
    spec, sd = cached_decompose(5, 1.0, 0.5, 0.3)
    grid = thermo_grid(sd, temperatures)
    rdm = pair_rdms(grid, 1, 2)
    cs = correlations_from_rdm(rdm)
    stacked = check_element_relations(rdm, cs)
    for r in range(len(temperatures)):
        row = check_element_relations(rdm.rows([r]), cs.rows([r]))
        assert row.keys() == stacked.keys()
        for name, residual in row.items():
            assert stacked[name].shape == (len(temperatures),)
            assert residual.shape == (1,)
            assert stacked[name][r] == residual[0], (name, r)
            assert residual[0] <= 1e-10, (name, r)


def test_z_is_real_for_isotropic_ring():
    spec, sd = cached_decompose(3, 1.0)
    rdm = pair_rdms(thermo_grid(sd, [0.5]), 1, 2)
    cs = correlations_from_rdm(rdm)
    assert abs(rdm.z[0].imag) <= 1e-12
    assert check_element_relations(rdm, cs)["im_z"][0] <= 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.5, 2.0])
def test_z_real_even_for_anisotropic_rings(delta):
    # reflection symmetry of the ring keeps <s+ s-> real away from delta = 1
    spec, sd = cached_decompose(5, 1.0, delta, 0.4)
    rdm = pair_rdms(thermo_grid(sd, [0.3, 2.0]), 1, 2)
    assert np.all(np.abs(rdm.z.imag) <= 1e-10)


@pytest.mark.parametrize("n,j", [(2, 1.0), (4, 1.0), (5, 1.0), (2, -1.0), (4, -1.0)])
def test_z_sign_tracks_exchange_sign(n, j):
    spec, sd = cached_decompose(n, j)
    for z in pair_rdms(thermo_grid(sd, [0.2, 1.0, 5.0]), 1, 2).z:
        if abs(z) > 1e-12:
            assert (z.real < 0) == (j > 0)


@pytest.mark.parametrize("n,t", [(2, 0.5), (4, 1.0), (6, 0.3)])
def test_z_energy_relation_isotropic(n, t):
    spec, sd = cached_decompose(n, 1.0)
    grid = thermo_grid(sd, [t])
    rdm = pair_rdms(grid, 1, 2)
    assert abs(rdm.z[0].real - grid.u[0] / (6.0 * n)) <= 1e-10


def test_pair_translation_invariance():
    spec, sd = cached_decompose(6, 1.0, 0.5, 0.3)
    grid = thermo_grid(sd, [0.7])
    base = pair_rdms(grid, 1, 2)
    for k in (2, 3, 5):
        shifted = pair_rdms(grid, k, k % 6 + 1)
        assert np.max(np.abs(base.matrix - shifted.matrix)) <= 1e-10


def test_correlation_bound():
    for args in [(4, 1.0, 1.0, 0.0), (5, 1.0, 2.0, 1.0), (6, -1.0, 0.0, 0.0)]:
        spec, sd = cached_decompose(*args)
        grid = thermo_grid(sd, [0.1, 1.0])
        cs = correlations_from_rdm(pair_rdms(grid, 1, 2))
        assert np.max(np.abs(cs.g)) <= 1.0 + 1e-12


def test_fast_path_matches_partial_trace():
    spec, sd = cached_decompose(6, 1.0, 0.5, 0.4)
    temps = [0.2, 1.0, 8.0]
    grid = thermo_grid(sd, temps)
    for pair in [(1, 2), (2, 5), (4, 1)]:
        fast = pair_rdms(grid, *pair)
        for t, fast_matrix in zip(temps, fast.matrix):
            direct = reduce_to_pair(gibbs_state(sd, t)[None], *pair)
            assert np.max(np.abs(direct.matrix[0] - fast_matrix)) <= 1e-12


@pytest.mark.parametrize("spec", [
    pytest.param(ModelSpec.uniform(6, 1.0, 0.5, 0.3), id="sector-blocks-N6"),
    pytest.param(ModelSpec.uniform(5, -1.0, 2.0, 0.4), id="sector-blocks-N5"),
    pytest.param(random_general_spec(5, seed=3, field_b=0.3), id="parity-general-N5"),
])
def test_pair_table_rows_are_eigenstate_pair_rdms(spec):
    # row k of the table is the pair RDM of the projector on eigenstate k
    sd = decompose(spec)
    v = eigenvector_matrix(sd)
    for pair in [(1, 2), (2, 1), (1, spec.n_sites)]:
        table = _pair_table(sd, *pair)
        for k in range(sd.dim):
            expected = reduce_to_pair(np.outer(v[:, k], v[:, k].conj())[None], *pair).matrix
            assert np.max(np.abs(table[k].reshape(1, 4, 4) - expected)) <= 1e-13, (pair, k)
        if spec.conserves_sz:
            assert np.all(table[:, SZ_FORBIDDEN] == 0.0)
        else:
            # a parity block pairs states whose pair bits differ in
            # parity with no partner: only the X pattern, corners included,
            # is filled
            assert np.all(table[:, ~X_PATTERN] == 0.0)
            assert np.all(np.any(table[:, X_PATTERN] != 0.0, axis=0))


def test_pair_rdms_store_no_table():
    # only the pair mode of decompose fills pair_tables; a table built
    # from the eigenvectors is not kept on the decomposition
    spec = ModelSpec.uniform(5, 1.0, 0.5, 0.3)
    sd = decompose(spec)
    grid = thermo_grid(sd, [0.5, 2.0])
    first = pair_rdms(grid, 1, 2).matrix
    assert sd.pair_tables == {}
    assert np.array_equal(pair_rdms(grid, 1, 2).matrix, first)
    assert sd.pair_tables == {}


def test_pair_table_refuses_mixed_parity_blocks():
    # the one dense block of diagonalize_full mixes spin-flip parities;
    # its pair RDMs come from oracle.reduce_to_pair of the Gibbs matrix
    spec = ModelSpec.uniform(4, 1.0, 0.5, 0.3)
    full = diagonalize_full(build_hamiltonian(spec))
    with pytest.raises(ValueError, match="one spin-flip parity"):
        pair_rdms(thermo_grid(full, [1.0]), 1, 2)


def test_off_structure_norm_vanishes_when_sz_conserved():
    spec, sd = cached_decompose(5, 1.0, 0.5, 0.7)
    rdm = pair_rdms(thermo_grid(sd, [0.5]), 1, 2)
    assert rdm.off_structure_norm[0] <= 1e-10


@pytest.mark.parametrize("n,j,delta,b,t", [
    (4, 1.0, 1.0, 0.0, 0.1), (5, -1.0, 0.5, 0.6, 1.0), (6, 1.0, 2.0, 0.0, 10.0),
])
def test_rdm_is_a_density_matrix(n, j, delta, b, t):
    spec, sd = cached_decompose(n, j, delta, b)
    rdm = pair_rdms(thermo_grid(sd, [t]), 1, 2)
    assert abs(rdm.u_plus[0] + rdm.w1[0] + rdm.w2[0] + rdm.u_minus[0] - 1.0) <= 1e-12
    m = rdm.matrix[0]
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_site_errors():
    rho = np.eye(8, dtype=complex)[None] / 8.0
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
    grid = thermo_grid(sd, [0.5])
    a = pair_rdms(grid, 1, 2).matrix[0]
    b = pair_rdms(grid, 2, 1).matrix[0]
    first_a = a.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    second_b = b.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
    assert np.max(np.abs(first_a - second_b)) <= 1e-12


def test_imaginary_correlation_rejected():
    # a non-Hermitian 4x4 input: the first offending component is named
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 3] = 0.1j
    with pytest.raises(ValueError, match="G_xx has imaginary part 1.000e-01"):
        correlations_from_rdm(TwoQubitRDM.from_matrix(m[None], (1, 2)))
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 0] += 1e-6j
    with pytest.raises(ValueError, match="G_zz"):
        correlations_from_rdm(TwoQubitRDM.from_matrix(m[None], (1, 2)))
    with pytest.raises(ValueError, match="G_zz"):
        correlations(np.kron(m, np.eye(2) / 2.0)[None], 1, 2)
    # residues at or below 1e-8 are rounding noise and pass
    m[0, 0] = 0.25 + 1e-9j
    assert correlations_from_rdm(TwoQubitRDM.from_matrix(m[None], (1, 2))).g[0, 2, 2] == 0.0


def test_sweep_computes_one_tensor_per_row(monkeypatch):
    # count every call, under whichever module name a caller imported it;
    # the sweep contracts the whole (R, 4, 4) stack once, so R rows cost
    # R tensors and no row is contracted again (bell reads the same tensors)
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
    columns = run_sweep(heisenring.ModelSpec.uniform(4, 1.0, 0.5, 0.2),
                        np.linspace(0.1, 3.0, 7))
    assert all(len(values) == 7 for values in columns.values())
    assert len(calls) == 1
    assert calls[0].matrix.shape == (7, 4, 4)


def test_sweep_of_an_empty_grid_is_empty():
    # the isotropic ring, and the same ring in a field (the field route)
    for spec in (ModelSpec.uniform(4, 1.0), ModelSpec.uniform(4, 1.0, 1.0, 0.3)):
        columns = run_sweep(spec, np.array([]))
        assert all(values == [] for values in columns.values())


@pytest.fixture
def sweep_calls(monkeypatch):
    """Runs run_sweep and returns (widths of the 2-D eigh calls, _pair_table pairs)."""
    eigh, pair_table = np.linalg.eigh, twoqubit._pair_table
    widths, tables = [], []

    def counted_eigh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            widths.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    def counted_table(sd, i, j):
        tables.append((i, j))
        return pair_table(sd, i, j)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(twoqubit, "_pair_table", counted_table)

    def run(spec, pair):
        widths.clear()
        tables.clear()
        run_sweep(spec, np.array([0.0, 0.5, 2.0]), pair)
        return list(widths), list(tables)

    return run


@pytest.mark.parametrize("pair", [(1, 2), (2, 1), (1, 8), (8, 1), (4, 5), (1, 3), (2, 6)])
def test_uniform_bond_sweep_holds_no_sector_vectors(sweep_calls, pair):
    # every pair of a uniform ring, ring bond or not, reads its table from
    # the momentum blocks: no eigh on a sector-wide block, no pair table
    # from vectors
    widths, tables = sweep_calls(ModelSpec.uniform(8, 1.0, 0.5, 0.2), pair)
    assert tables == []
    assert widths and max(widths) < math.comb(8, 4)


def test_other_sweeps_keep_the_sector_pair_table(sweep_calls):
    # a general spec, even on a ring bond, still takes the sector
    # eigenvectors and builds the pair table from them
    uniform = ModelSpec.uniform(8, 1.0, 0.5, 0.2)
    general = ModelSpec.general(*ring_coupling_matrices(uniform), field_b=0.2)
    widths, tables = sweep_calls(general, (1, 2))
    assert tables == [(1, 2)]
    assert math.comb(8, 4) in widths


def test_state_layer_refuses_a_bare_state():
    # one state is a stack of one: a bare 4x4 matrix or 3x3 tensor is refused
    # with the (R, ...) shape named
    with pytest.raises(ValueError, match=r"\(R, 4, 4\) stack"):
        TwoQubitRDM.from_matrix(SINGLET_RHO, (1, 2))
    with pytest.raises(ValueError, match=r"\(R, 4, 4\) stack"):
        TwoQubitRDM.from_matrix(SINGLET_RHO[None], (1, 2)).rows(0)
    with pytest.raises(ValueError, match=r"\(R, 3, 3\) stack"):
        twoqubit.CorrelationSet(g=-np.eye(3), m_per_site=0.0)
    for rho in (SINGLET_RHO, np.eye(6)[None] / 6.0):
        with pytest.raises(ValueError, match=r"\(R, 2\^N, 2\^N\) stack"):
            reduce_to_pair(rho, 1, 2)
        with pytest.raises(ValueError, match=r"\(R, 2\^N, 2\^N\) stack"):
            correlations(rho, 1, 2)


def test_pair_mode_names_the_pair_it_holds():
    # the pair mode keeps one pair's table and no eigenvectors: another
    # pair is refused with the pair it holds and the call that gives the other
    spec = ModelSpec.uniform(6, 1.0)
    sd = decompose(spec, pair=(1, 2))
    grid = thermo_grid(sd, [1.0])
    with pytest.raises(ValueError) as refused:
        pair_rdms(grid, 2, 3)
    message = str(refused.value)
    assert "(1, 2)" in message
    assert "decompose(spec, pair=(2, 3))" in message
    assert "vectors=True" not in message
