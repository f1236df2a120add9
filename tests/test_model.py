import math

import numpy as np
import pytest

from heisenring import (
    GeneralCoupling,
    ModelSpec,
    build_hamiltonian,
    ring_coupling_matrices,
)
from heisenring.model import (
    PAULI,
    SIGMA_Y,
    _real_part,
    hermiticity_defect,
    reflection,
    rotate,
    site_indices,
    translation,
)
from heisenring.oracle import embed
from heisenring.verify import VerifyOptions, _spec_grid
from helpers import kron_hamiltonian, kron_sites, random_general_spec, symmetry_norms


def pauli_at(site, axis, n):
    """sigma_axis on one site of an n-site register."""
    return embed(PAULI[axis], (site,), n)


def test_single_qubit_sigma_z_convention():
    assert np.array_equal(pauli_at(1, "z", 1), np.diag([1.0 + 0j, -1.0]))


def test_kron_placement():
    assert np.array_equal(pauli_at(2, "z", 2), np.diag([1.0 + 0j, -1.0, 1.0, -1.0]))
    assert np.array_equal(pauli_at(1, "z", 2), np.diag([1.0 + 0j, 1.0, -1.0, -1.0]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_orthogonality(n):
    ops = [(i, ax, pauli_at(i, ax, n))
           for i in range(1, n + 1) for ax in "xyz"]
    for i, ax_i, a in ops:
        for j, ax_j, b in ops:
            expected = (1 << n) if (i, ax_i) == (j, ax_j) else 0.0
            assert abs(np.trace(a @ b) - expected) < 1e-12


def test_pauli_algebra():
    for ax in "xyz":
        p = pauli_at(2, ax, 3)
        assert np.max(np.abs(p - p.conj().T)) == 0.0
        assert abs(np.trace(p)) == 0.0
        assert np.max(np.abs(p @ p - np.eye(8))) == 0.0


def test_pauli_site_out_of_range():
    with pytest.raises(ValueError):
        pauli_at(4, "x", 3)
    with pytest.raises(ValueError):
        pauli_at(0, "x", 3)


def test_two_site_spectrum():
    h = build_hamiltonian(ModelSpec.uniform(2, 1.0))
    assert np.allclose(np.linalg.eigvalsh(h), [-6.0, 2.0, 2.0, 2.0], atol=1e-12)


def test_three_site_spectrum():
    h = build_hamiltonian(ModelSpec.uniform(3, 1.0))
    assert np.allclose(np.linalg.eigvalsh(h), [-3.0] * 4 + [3.0] * 4, atol=1e-12)


def test_double_bond_convention():
    # the periodic sum over two sites visits the bond twice
    sx, sy, sz = (pauli_at(1, ax, 2) @ pauli_at(2, ax, 2) for ax in "xyz")
    assert np.max(np.abs(build_hamiltonian(ModelSpec.uniform(2, 1.0))
                         - 2.0 * (sx + sy + sz))) == 0.0


def test_zero_coupling_zero_field():
    assert np.max(np.abs(build_hamiltonian(ModelSpec.uniform(2, 0.0)))) == 0.0


@pytest.mark.parametrize("n,delta,b", [(2, 1.0, 0.0), (4, 0.5, 0.3),
                                       (5, 2.0, 1.0), (6, 0.0, 0.0)])
def test_hamiltonian_hermitian_and_real(n, delta, b):
    h = build_hamiltonian(ModelSpec.uniform(n, 1.3, delta, b))
    assert hermiticity_defect(h) <= 1e-12
    assert np.max(np.abs(h.imag)) == 0.0  # no lone sigma_y terms


@pytest.mark.parametrize("n,j,delta,b", [(2, 1.0, 1.0, 0.0), (3, -1.0, 0.5, 0.2),
                                         (4, 2.0, 2.0, 0.5), (6, 0.7, 0.0, 0.0)])
def test_uniform_general_equivalence(n, j, delta, b):
    spec = ModelSpec.uniform(n, j, delta, b)
    jx, jy, jz = ring_coupling_matrices(spec)
    gen = ModelSpec.general(jx, jy, jz, field_b=b)
    assert np.max(np.abs(build_hamiltonian(gen) - build_hamiltonian(spec))) == 0.0


@pytest.mark.parametrize("n,delta,b", [(3, 1.0, 0.0), (4, 0.5, 0.0), (5, 1.0, 0.4)])
def test_translation_covariance(n, delta, b):
    h = build_hamiltonian(ModelSpec.uniform(n, 1.0, delta, b))
    p = translation(n)
    assert np.max(np.abs(h[np.ix_(p, p)] - h)) <= 1e-12


def test_translation_is_permutation():
    for n in (2, 3, 6):
        p = translation(n)
        assert p.dtype == np.int64
        assert np.array_equal(np.sort(p), np.arange(1 << n))
        # acting n times returns to the identity
        q = np.arange(1 << n)
        for _ in range(n):
            q = p[q]
        assert np.array_equal(q, np.arange(1 << n))


def test_translation_rotates_bits_left():
    # brute force at N = 6: site i + 1's spin moves to site i, site 1's to
    # site N; rotate by r, 0 <= r <= N, does that r times
    n = 6
    p = translation(n)
    states = np.arange(1 << n, dtype=np.int64)
    for s in range(1 << n):
        bits = format(s, f"0{n}b")
        assert p[s] == int(bits[1:] + bits[0], 2)
        for r in range(n + 1):
            assert rotate(states, r, n)[s] == int(bits[r:] + bits[:r], 2)


def test_reflection_reverses_bits():
    # brute force at N = 6: site i's spin moves to site N + 1 - i
    n = 6
    p = reflection(n)
    assert p.dtype == np.int64
    for s in range(1 << n):
        assert p[s] == int(format(s, f"0{n}b")[::-1], 2)


@pytest.mark.parametrize("n", [2, 3, 6, 7])
def test_reflection_is_an_involution_that_inverts_translation(n):
    r, t = reflection(n), translation(n)
    every_state = np.arange(1 << n)
    assert np.array_equal(r[r], every_state)
    # R T R = T^-1: R T R T is the identity
    assert np.array_equal(r[t[r[t]]], every_state)


@pytest.mark.parametrize("n,j,delta,b", [(3, 1.0, 1.0, 0.0), (4, -0.8, 0.5, 0.3),
                                         (5, 1.0, 2.0, -0.4), (6, 0.7, 0.0, 0.2)])
def test_reflection_commutes_with_uniform_ring(n, j, delta, b):
    h = build_hamiltonian(ModelSpec.uniform(n, j, delta, b))
    p = reflection(n)
    assert np.max(np.abs(h[np.ix_(p, p)] - h)) <= 1e-12


@pytest.mark.parametrize("n,b", [(2, 0.5), (4, 1.0), (5, 2.0)])
def test_field_flip_spectrum(n, b):
    h_plus = build_hamiltonian(ModelSpec.uniform(n, 1.0, 1.0, b))
    h_minus = build_hamiltonian(ModelSpec.uniform(n, 1.0, 1.0, -b))
    ev_plus = np.linalg.eigvalsh(h_plus)
    ev_minus = np.linalg.eigvalsh(h_minus)
    assert np.max(np.abs(ev_plus - ev_minus)) <= 1e-10
    # the global flip conjugates the field term: Q_x H(B) Q_x = H(-B); Q_x
    # flips every bit, so it permutes the basis
    dim = 1 << n
    flip = np.arange(dim) ^ (dim - 1)
    assert np.max(np.abs(h_plus[np.ix_(flip, flip)] - h_minus)) <= 1e-12


def test_symmetry_report_full_symmetry():
    norms = symmetry_norms(ModelSpec.uniform(4, 1.0))
    assert all(v <= 1e-10 for v in norms.values())


def test_symmetry_report_xxz():
    norms = symmetry_norms(ModelSpec.uniform(4, 1.0, 0.5))
    assert norms["S_z"] <= 1e-10
    assert norms["Q_x"] <= 1e-10
    assert norms["T_shift"] <= 1e-10
    assert norms["S_x"] > 1e-6
    assert norms["S_y"] > 1e-6


def test_symmetry_report_field_breaks_flip():
    norms = symmetry_norms(ModelSpec.uniform(4, 1.0, 1.0, 0.7))
    assert norms["S_z"] <= 1e-10
    assert norms["Q_x"] > 1e-6


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec.uniform(1, 1.0)
    with pytest.raises(ValueError):
        ModelSpec.uniform(15, 1.0)
    asym = np.zeros((3, 3))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        ModelSpec.general(asym, np.zeros((3, 3)), np.zeros((3, 3)))
    diag = np.eye(3)
    with pytest.raises(ValueError, match="diagonal"):
        ModelSpec.general(diag, np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        ModelSpec.general(np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("jx", [3.0, np.zeros(3), np.zeros((2, 2, 2))],
                         ids=["scalar", "vector", "3d"])
def test_general_spec_needs_matrices(jx):
    # a ValueError, not an IndexError from reading the size off a scalar
    with pytest.raises(ValueError, match="jx must be a matrix"):
        ModelSpec.general(jx, np.zeros((3, 3)), np.zeros((3, 3)))


@pytest.mark.parametrize("kwargs,name", [
    ({"j": math.nan}, "j"), ({"j": 1.0, "delta": math.inf}, "delta"),
    ({"j": 1.0, "field_b": -math.inf}, "field_b"), ({"j": 1.0, "field_b": math.nan}, "field_b"),
])
def test_uniform_spec_rejects_non_finite(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelSpec.uniform(3, **kwargs)


def test_general_spec_rejects_non_finite():
    m = np.zeros((3, 3))
    bad = m.copy()
    bad[0, 1] = bad[1, 0] = math.nan
    with pytest.raises(ValueError, match="jy must be finite"):
        ModelSpec.general(m, bad, m)
    with pytest.raises(ValueError, match="field_b must be finite"):
        ModelSpec.general(m, m, m, field_b=math.inf)


def test_conserves_sz():
    assert ModelSpec.uniform(3, 1.0, 0.2, 0.5).conserves_sz
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 1.0
    assert ModelSpec.general(m, m, 0.5 * m).conserves_sz
    assert not ModelSpec.general(m, 2 * m, m).conserves_sz


def test_general_mode_next_nearest():
    # a pair coupling the ring pattern cannot express: sites (1, 3) only
    m = np.zeros((4, 4))
    m[0, 2] = m[2, 0] = 0.5
    h = build_hamiltonian(ModelSpec.general(m, m, m))
    # equals an isotropic two-qubit coupling on (1, 3): swap-like spectrum
    ev = np.linalg.eigvalsh(h)
    assert np.allclose(sorted(set(np.round(ev, 10))), [-3.0, 1.0])
    assert hermiticity_defect(h) <= 1e-10


def test_general_coupling_matrices_frozen():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 1.0
    spec = ModelSpec.general(m, m, m)
    assert isinstance(spec.coupling, GeneralCoupling)
    with pytest.raises(ValueError):
        spec.coupling.jx[0, 1] = 2.0


def test_embed_matches_per_site_kron():
    sx, sy, sz = (PAULI[ax] for ax in "xyz")
    assert np.array_equal(embed(np.kron(sx, sz), (2, 4), 4), kron_sites({2: sx, 4: sz}, 4))
    # the first tensor factor of op lands on the first site listed
    assert np.array_equal(embed(np.kron(sx, sz), (4, 2), 4), kron_sites({4: sx, 2: sz}, 4))
    assert np.array_equal(embed(np.kron(np.kron(sy, sx), sz), (3, 1, 2), 3),
                          kron_sites({3: sy, 1: sx, 2: sz}, 3))


@pytest.mark.parametrize("sites, n", [((1,), 1), ((2, 4), 4), ((4, 2), 4),
                                      ((3, 1, 5), 5), ((2, 1, 3), 3)])
def test_site_indices_group_basis_by_site_bits(sites, n):
    idx = site_indices(sites, n)
    k = len(sites)
    assert idx.shape == (1 << k, 1 << (n - k)) and idx.dtype == np.int64
    # the rows partition the basis
    assert np.array_equal(np.sort(idx, axis=None), np.arange(1 << n))
    for a, row in enumerate(idx):
        # row a reads a on `sites`, the first site listed most significant
        read = sum(((row >> (n - s)) & 1) << (k - 1 - t) for t, s in enumerate(sites))
        assert np.all(read == a)
        # and runs over the other sites' configurations in ascending order
        assert np.all(np.diff(row) > 0)


def test_embed_validates_sites():
    sz = PAULI["z"]
    with pytest.raises(ValueError, match="out of range"):
        embed(sz, (4,), 3)
    with pytest.raises(ValueError, match="distinct"):
        embed(np.kron(sz, sz), (2, 2), 3)


def _jy_only_spec(n):
    jy = random_general_spec(n, seed=5).coupling.jy
    return ModelSpec.general(np.zeros((n, n)), jy, np.zeros((n, n)))


@pytest.mark.parametrize("spec", [
    *(pytest.param(ModelSpec.uniform(n, j, delta, b), id=f"uniform-N{n}")
      for n, j, delta, b in [(2, 1.0, 1.0, 0.0), (3, -1.0, 0.5, 0.3), (4, 1.3, 0.0, 0.0),
                             (5, -0.7, 2.0, 1.0), (6, 1.0, 0.0, -0.4), (7, 2.0, 1.0, 0.5),
                             (8, -1.0, 0.5, 0.2)]),
    pytest.param(random_general_spec(5, seed=3, field_b=0.3), id="general-N5"),
    pytest.param(_jy_only_spec(4), id="jy-only-N4"),
])
def test_hamiltonian_is_real(spec):
    # sigma_y x sigma_y is real, so the real build equals the complex kron sum
    h = build_hamiltonian(spec)
    assert h.dtype == np.float64
    assert np.array_equal(h, kron_hamiltonian(spec))


def test_real_part_refuses_an_imaginary_term():
    # a term with an imaginary part is never dropped in silence
    with pytest.raises(RuntimeError, match="sigma_y"):
        _real_part("sigma_y", SIGMA_Y)


def test_hamiltonian_equals_kron_reference_on_verify_grid():
    # every uniform spec of the default verify grid, bit for bit
    for spec in _spec_grid(VerifyOptions()):
        assert np.array_equal(build_hamiltonian(spec), kron_hamiltonian(spec)), spec
