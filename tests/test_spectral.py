import math

import numpy as np
import pytest

from heisenring import ModelSpec, decompose, spectral
from heisenring.spectral import _blocks, _sector
from heisenring.model import ring_coupling_matrices
from heisenring.oracle import (
    build_hamiltonian,
    diagonalize_full,
    eigen_residuals,
    expected_sector_sizes,
    gibbs_state,
    parity_basis,
    reduce_to_pair,
    sector_basis,
)
from heisenring.thermo import thermo_grid
from heisenring.twoqubit import pair_rdms
from helpers import (
    cached_decompose,
    check_spectral_moments,
    random_general_spec,
    second_moment,
)


def test_plain_diagonal():
    sd = diagonalize_full(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(sd.eigenvalues, [1.0, 2.0, 3.0])
    assert sd.ground_energy == 1.0
    assert sd.ground_degeneracy == 1


def test_identity_degeneracy():
    sd = diagonalize_full(np.eye(4, dtype=complex))
    assert np.allclose(sd.eigenvalues, 1.0)
    assert sd.ground_degeneracy == 4


def test_two_site_full():
    spec = ModelSpec.uniform(2, 1.0)
    sd = diagonalize_full(build_hamiltonian(spec))
    assert np.allclose(sd.eigenvalues, [-6.0, 2.0, 2.0, 2.0], atol=1e-12)
    assert sd.ground_degeneracy == 1


def test_two_site_sector_blocks():
    assert expected_sector_sizes(2) == [1, 2, 1]
    basis = sector_basis(2)
    assert [b.size for b in basis] == [1, 2, 1]
    spec = ModelSpec.uniform(2, 1.0)
    sd = decompose(spec)
    assert np.allclose(sd.eigenvalues, [-6.0, 2.0, 2.0, 2.0], atol=1e-12)
    assert sd.sector_labels is not None


def test_nonhermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        diagonalize_full(bad)


def test_sz_breaking_spec_gets_parity_blocks():
    # jx != jy breaks S_z but keeps the spin-flip parity: one block over
    # the states with an even down-spin count, one over the odd, no labels
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = 1.0
    spec = ModelSpec.general(m, 2 * m, m, field_b=0.3)
    sd = decompose(spec)
    assert sd.sector_labels is None
    assert [blk.states.tolist() for blk in sd.eigvec_blocks] == [[0, 3], [1, 2]]
    full = diagonalize_full(build_hamiltonian(spec))
    assert np.max(np.abs(sd.eigenvalues - full.eigenvalues)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_blocks_hold_the_reference_sector_and_parity_bases(n):
    # decompose groups the basis by down-spin count, or by its parity, on
    # its own; each block holds exactly one group of the reference, in order
    for spec, bases in ((ModelSpec.uniform(n, 1.0, 0.5, 0.3), sector_basis(n)),
                        (random_general_spec(n, seed=n, field_b=0.3), parity_basis(n))):
        states = [blk.states for blk in decompose(spec).eigvec_blocks]
        assert len(states) == len(bases)
        for got, want in zip(states, bases):
            assert got.dtype == np.int64 and np.array_equal(got, want)
    assert [b.size for b in sector_basis(n)] == expected_sector_sizes(n)


@pytest.mark.parametrize("n,j,delta,b", [
    (2, 1.0, 1.0, 0.0),
    (3, -1.0, 1.0, 0.0),
    (4, 1.0, 0.5, 0.0),
    (5, 1.0, 2.0, 0.8),
    (6, -0.7, 0.0, 0.4),
    (8, 1.0, 1.0, 0.0),
])
def test_sector_matches_full(n, j, delta, b):
    spec = ModelSpec.uniform(n, j, delta, b)
    h = build_hamiltonian(spec)
    full = diagonalize_full(h)
    for sd in (decompose(spec), full):
        assert np.max(np.abs(sd.eigenvalues - full.eigenvalues)) <= 1e-9
        resid, ortho = eigen_residuals(h, sd)
        assert resid <= 1e-9
        assert ortho <= 1e-9
    assert abs(full.eigenvalues.sum() - np.trace(h).real) <= \
        1e-8 * max(1.0, abs(np.trace(h).real))


def test_sector_labels_match_hamming():
    spec = ModelSpec.uniform(4, 1.0, 0.5, 0.3)
    sd = decompose(spec)
    # each block lives inside one sector and its columns carry that label;
    # together the columns cover the sorted spectrum exactly once
    covered = np.concatenate([cols for _, _, cols in sd.eigvec_blocks])
    assert np.array_equal(np.sort(covered), np.arange(sd.dim))
    for states, vecs, cols in sd.eigvec_blocks:
        weights = {int(b).bit_count() for b in states}
        assert len(weights) == 1
        assert np.all(sd.sector_labels[cols] == (4 - 2 * weights.pop()) / 2.0)
        assert vecs.shape == (states.size, cols.size)


def test_deterministic_repeat():
    spec = ModelSpec.uniform(5, 1.0, 0.5, 0.2)
    a = decompose(spec)
    b = decompose(spec)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    for blk_a, blk_b in zip(a.eigvec_blocks, b.eigvec_blocks, strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(blk_a, blk_b))


def test_full_path_phase_fix_deterministic():
    h = build_hamiltonian(ModelSpec.uniform(4, 1.0))
    a = diagonalize_full(h)
    b = diagonalize_full(h.copy())
    (blk_a,), (blk_b,) = a.eigvec_blocks, b.eigvec_blocks
    assert np.array_equal(blk_a.vectors, blk_b.vectors)


def test_degenerate_ground_space():
    spec, sd = cached_decompose(3, 1.0)
    assert sd.ground_degeneracy == 4
    spec, sd = cached_decompose(2, -1.0)
    assert sd.ground_degeneracy == 3  # ferromagnetic triplet


def test_delta_arithmetic_detour_same_spectrum():
    # delta arriving via arithmetic equal to 1.0 changes nothing
    a = decompose(ModelSpec.uniform(4, 1.0, 1.0))
    b = decompose(ModelSpec.uniform(4, 1.0, 0.5 * 2.0 * 1.0))
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-9



@pytest.mark.parametrize("translate", [True, False])
@pytest.mark.parametrize("k", range(7))
def test_sector_orbits_brute_force(k, translate):
    # every N = 6 sector: each state's representative is its smallest
    # rotation, reached at the smallest shift, and R_a is the orbit length;
    # without translation every state is its own orbit
    n = 6
    states = sector_basis(n)[k]
    sector = _sector(n, states, translate)
    assert np.array_equal(sector.states, states)

    def rotate(s, r):
        bits = format(s, f"0{n}b")
        return int(bits[r:] + bits[:r], 2)

    orbits = {}
    for s, a, l in zip(states.tolist(), sector.orbit, sector.shift):
        orbit = [rotate(s, r) for r in range(n)] if translate else [s]
        rep = sector.reps[a]
        assert rep == min(orbit)
        assert l == orbit.index(rep)
        orbits[rep] = len(set(orbit))
    assert sector.reps.tolist() == sorted(orbits)
    assert sector.period.tolist() == [orbits[rep] for rep in sorted(orbits)]


def test_two_site_momentum_blocks():
    # one down spin: the representative 01 is its own block at k = 0 (the
    # triplet, 2J) and at k = pi (the singlet, -6J); the bond counts twice
    spec = ModelSpec.uniform(2, 1.0)
    blocks = list(_blocks(spec.pair_terms(), _sector(2, sector_basis(2)[1], True), 0.0))
    assert [mult for mult, _, _ in blocks] == [1, 1]
    assert [basis.tolist() for _, basis, _ in blocks] == [[1], [1]]
    assert [b.tolist() for _, _, b in blocks] == [[[2.0]], [[-6.0]]]


def test_momentum_blocks_hermitian_and_sized():
    # N = 14, sectors with 2k <= N, momenta 0 <= m <= N/2: counted with
    # their multiplicities the blocks hold the C(14, k) levels, and with
    # the flipped sectors N - k they stand for the 184 blocks of every
    # (k, m); the largest is 246 wide, against 3432 for the sector
    n = 14
    spec = ModelSpec.uniform(n, 1.0, 0.5, 0.3)
    widths = []
    for k, states in enumerate(sector_basis(n)[:n // 2 + 1]):
        blocks = list(_blocks(spec.pair_terms(), _sector(n, states, True), 0.0))
        assert sum(mult * b.shape[0] for mult, _, b in blocks) == states.size
        for _, basis, b in blocks:
            assert basis.shape == b.shape[:1]
            assert b.dtype == np.float64
            # hop sums agree with their transposed partners up to rounding
            assert np.max(np.abs(b - b.conj().T)) <= 1e-12
        sectors = 2 if 2 * k < n else 1
        widths += [b.shape[0] for mult, _, b in blocks for _ in range(sectors * mult)]
    assert len(widths) == 184
    assert max(widths) == 246


def _general_sz_spec(n, seed, z=True, xy=True, field_b=0.3):
    rng = np.random.default_rng(seed)

    def sym():
        a = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        return a + a.T

    jxy = sym() if xy else np.zeros((n, n))
    jz = sym() if z else np.zeros((n, n))
    return ModelSpec.general(jxy, jxy, jz, field_b)


@pytest.mark.parametrize("spec", [
    ModelSpec.uniform(2, 1.0),                 # the double bond
    ModelSpec.uniform(2, -0.7, 0.4, -0.3),
    ModelSpec.uniform(5, 0.0, 1.3, 0.2),       # J = 0
    ModelSpec.uniform(6, 1.1, 0.0, 0.4),       # delta = 0
    ModelSpec.uniform(7, -0.9, 0.6, -0.55),    # B < 0
    ModelSpec.uniform(8, 1.0, 1.0, -1.2),
    _general_sz_spec(5, 1),
    _general_sz_spec(6, 2, z=False),           # no z couplings
    _general_sz_spec(4, 3, xy=False),          # z couplings only
    _general_sz_spec(3, 4, z=False, xy=False, field_b=-0.4),  # no couplings at all
], ids=["n2", "n2-field", "j0", "delta0", "b-neg", "n8", "general", "general-no-z",
        "general-z-only", "general-zero"])
def test_trivial_orbit_block_is_sector_block(spec):
    # with every state its own orbit the builder yields one real block per
    # sector, at m = 0: the dense H restricted to the sector's states
    n = spec.n_sites
    h = build_hamiltonian(spec)
    assert np.max(np.abs(h.imag)) == 0.0
    for states in sector_basis(n):
        blocks = list(_blocks(spec.pair_terms(), _sector(n, states, False), spec.field_b))
        assert len(blocks) == 1
        mult, basis, block = blocks[0]
        assert mult == 1 and block.dtype == np.float64
        assert np.array_equal(basis, states)
        assert np.max(np.abs(block - h.real[np.ix_(states, states)])) <= 1e-13


@pytest.mark.parametrize("delta,b,degeneracy", [(1.0, 0.0, 4), (0.5, 0.3, 2)])
def test_conjugate_momenta_bit_equal(delta, b, degeneracy):
    # N = 13: the ground level sits at a conjugate pair of momenta (and, at
    # B = 0, in both S_z = +-1/2 sectors); one solve serves the whole level
    sd = decompose(ModelSpec.uniform(13, 1.0, delta, b), vectors=False)
    assert sd.ground_degeneracy == degeneracy
    assert np.all(sd.eigenvalues[:degeneracy] == sd.eigenvalues[0])


@pytest.mark.parametrize("n,j,delta,b", [
    (6, 1.0, 1.0, 0.3),
    (7, -0.8, 1.7, 0.25),
    (10, 1.0, 0.6, -0.37),
    (11, 0.7, 0.0, 1.1),
])
def test_flipped_sectors_shift_by_field(n, j, delta, b):
    sd = decompose(ModelSpec.uniform(n, j, delta, b), vectors=False)
    for s in np.unique(sd.sector_labels[sd.sector_labels > 0]):
        up = np.sort(sd.eigenvalues[sd.sector_labels == s])
        down = np.sort(sd.eigenvalues[sd.sector_labels == -s])
        assert np.max(np.abs(down + 4.0 * s * b - up)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_second_moment_closed_form(n):
    for j, delta, b in ((1.0, 1.0, 0.0), (-0.8, 1.3, 0.25), (1.2, 0.0, -0.6), (0.0, 1.0, 0.4)):
        h = build_hamiltonian(ModelSpec.uniform(n, j, delta, b))
        # tr(h @ h) without forming the product
        tr_h2 = np.einsum("ij,ji->", h, h).real
        assert abs(tr_h2 - second_moment(n, j, delta, b)) <= \
            1e-12 * (1 << n) * n * (j * j + b * b)


@pytest.mark.parametrize("n,j,delta,b", [
    (13, -0.8, 1.3, 0.25),
    (14, 1.0, 0.5, 0.3),
])
def test_paired_spectrum_moments(n, j, delta, b):
    sd = decompose(ModelSpec.uniform(n, j, delta, b), vectors=False)
    check_spectral_moments(sd, n, j, delta, b)


def test_values_only_uniform_matches_full():
    spec = ModelSpec.uniform(7, -0.8, 1.7, 0.25)
    sd = decompose(spec, vectors=False)
    full = diagonalize_full(build_hamiltonian(spec))
    assert sd.eigvec_blocks is None
    assert np.max(np.abs(sd.eigenvalues - full.eigenvalues)) <= 1e-10
    assert sd.ground_degeneracy == full.ground_degeneracy


def test_values_only_dense_path():
    # jx != jy breaks S_z: the parity blocks honour vectors=False
    jx, jy, jz = ring_coupling_matrices(ModelSpec.uniform(6, 1.0, 0.8))
    spec = ModelSpec.general(jx, 0.5 * jy, jz, field_b=0.3)
    values = decompose(spec, vectors=False)
    full = decompose(spec)
    assert values.eigvec_blocks is None
    assert np.max(np.abs(values.eigenvalues - full.eigenvalues)) <= 1e-12
    assert values.ground_degeneracy == full.ground_degeneracy
    with pytest.raises(ValueError, match="magnetization needs sector labels or eigenvectors"):
        thermo_grid(values, [1.0])


@pytest.mark.parametrize("n", range(2, 8))
def test_cross_parity_elements_vanish(n):
    # x-x and y-y terms flip two spins and the field lies along z, so H
    # never connects an even down-spin count to an odd one
    h = build_hamiltonian(random_general_spec(n, seed=n, field_b=0.4))
    even, odd = parity_basis(n)
    assert np.all(h[np.ix_(even, odd)] == 0.0)
    assert np.any(h[np.ix_(even, even)] != 0.0) and np.any(h[np.ix_(odd, odd)] != 0.0)


@pytest.mark.parametrize("n", range(2, 8))
def test_trivial_orbit_block_is_parity_block(n):
    # pair flips join the hops: each parity block is the dense H restricted
    # to its states, field included
    spec = random_general_spec(n, seed=n + 20, field_b=-0.35)
    h = build_hamiltonian(spec)
    for states in parity_basis(n):
        sector = _sector(n, states, False)
        ((mult, basis, block),) = _blocks(spec.pair_terms(), sector, spec.field_b)
        assert np.array_equal(basis, states)
        assert mult == 1 and block.dtype == np.float64
        assert np.max(np.abs(block - h[np.ix_(states, states)])) <= 1e-13


@pytest.mark.parametrize("n", range(2, 10))
def test_parity_blocks_match_dense_oracle(n):
    spec = random_general_spec(n, seed=n + 40, field_b=0.3)
    assert not spec.conserves_sz
    sd = decompose(spec)
    full = diagonalize_full(build_hamiltonian(spec))
    assert sd.sector_labels is None
    assert np.max(np.abs(sd.eigenvalues - full.eigenvalues)) <= 1e-12
    temps = (0.0, 0.3, 2.0)
    grid = thermo_grid(sd, temps)
    for pair in ((1, 2), (1, n), (n, 1)):
        stack = pair_rdms(grid, *pair).matrix
        for t, got in zip(temps, stack):
            want = reduce_to_pair(gibbs_state(full, t)[None], *pair).matrix[0]
            assert np.max(np.abs(got - want)) <= 1e-12, (t, pair)


BOND_TEMPERATURES = (0.0, 0.05, 0.5, 2.0, 20.0)


@pytest.mark.parametrize("n,j,delta,b", [
    (2, 1.0, 1.0, 0.0),      # the double bond
    (2, -0.7, 0.4, -0.3),
    (3, 1.0, 1.0, 0.0),      # fourfold ground level
    (4, -1.0, 1.0, 0.0),     # ferromagnet: fivefold ground level
    (5, 0.0, 1.3, 0.4),      # J = 0: z = 0
    (6, 1.3, 0.0, 0.2),      # delta = 0
    (7, -0.7, 2.0, 0.4),     # J < 0, delta = 2
    (8, 1.0, 0.5, 0.2),
    (9, 2.0, 2.0, 0.2),
    (10, 1.0, 0.5, 0.4),
])
def test_bond_mode_matches_pair_table_and_oracle(n, j, delta, b):
    # the pair mode's table from (S_z label, ZZ_n, XY_n) gives the thermal
    # pair RDMs of the sector eigenvectors' table and of the dense Gibbs
    # matrix, for every ring bond and both orders of its sites, and for
    # pairs further apart: distance 2 and half the ring
    spec = ModelSpec.uniform(n, j, delta, b)
    sector = decompose(spec)
    full = diagonalize_full(build_hamiltonian(spec))
    rhos = [gibbs_state(full, t) for t in BOND_TEMPERATURES]
    sector_grid = thermo_grid(sector, BOND_TEMPERATURES)
    pairs = {(1, 2), (2, 1), (1, n), (n, 1), (1, 1 + n // 2)}
    if n >= 3:
        pairs |= {(1, 3), (3, 1)}
    for pair in pairs:
        pair_sd = decompose(spec, pair=pair)
        assert pair_sd.eigvec_blocks is None
        assert list(pair_sd.pair_tables) == [pair]
        assert pair_sd.ground_degeneracy == sector.ground_degeneracy
        assert np.max(np.abs(pair_sd.eigenvalues - sector.eigenvalues)) <= 1e-12
        pair_grid = thermo_grid(pair_sd, BOND_TEMPERATURES)
        got = pair_rdms(pair_grid, *pair)
        assert np.all(got.z.imag == 0.0)
        assert np.all(np.abs(pair_grid.m - sector_grid.m) <= 1e-12)
        from_sector = pair_rdms(sector_grid, *pair).matrix
        for r, (t, rho) in enumerate(zip(BOND_TEMPERATURES, rhos)):
            for want in (from_sector[r], reduce_to_pair(rho[None], *pair).matrix[0]):
                assert np.max(np.abs(got.matrix[r] - want)) <= 1e-13, (pair, t)


def test_bond_mode_needs_a_uniform_ring_bond():
    # any two distinct sites 1..N of a uniform ring, and nothing else
    spec = ModelSpec.uniform(6, 1.0, 0.5, 0.2)
    jx, jy, jz = ring_coupling_matrices(spec)
    for bad_spec, pair in ((spec, (2, 2)), (spec, (0, 1)), (spec, (7, 8)),
                           (ModelSpec.general(jx, jy, jz, 0.2), (1, 2))):
        with pytest.raises(ValueError, match="pair mode"):
            decompose(bad_spec, pair=pair)


def test_values_only_decompose_runs_no_eigh(monkeypatch):
    # threshold and spectrum read values-only spectra: eigvalsh alone
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    jx, jy, jz = ring_coupling_matrices(ModelSpec.uniform(6, 1.0))
    for spec in (ModelSpec.uniform(9, 1.0, 0.5, 0.2), ModelSpec.uniform(8, -1.0),
                 ModelSpec.general(jx, jy, jz, 0.3), random_general_spec(5, seed=3)):
        assert decompose(spec, vectors=False).eigvec_blocks is None


@pytest.mark.parametrize("n,blocks,widest", [(13, 43, 132), (14, 57, 246)])
def test_values_only_uniform_solves_real_blocks(monkeypatch, n, blocks, widest):
    # every momentum block of a uniform ring reaches eigvalsh (values-only)
    # or eigh (the pair mode) as a real float64 matrix, 0 < m < N/2
    # included; both modes solve the same blocks
    seen = {}

    def recording(name):
        solve, seen[name] = getattr(np.linalg, name), []

        def run(a, *args, **kwargs):
            seen[name].append((a.dtype, a.shape[0]))
            return solve(a, *args, **kwargs)
        return run

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    spec = ModelSpec.uniform(n, 1.0, 0.5, 0.3)
    decompose(spec, vectors=False)
    assert seen["eigh"] == []
    decompose(spec, pair=(1, 2))
    assert seen["eigh"] == seen["eigvalsh"]
    assert {dtype for dtype, _ in seen["eigh"]} == {np.dtype(np.float64)}
    assert len(seen["eigh"]) == blocks
    assert max(width for _, width in seen["eigh"]) == widest


@pytest.mark.parametrize("n", [6, 7])
def test_pair_mode_shares_sector_bookkeeping(monkeypatch, n):
    # H's blocks and O_r's are built on one _Sector per S_z sector, 2k <= N,
    # which gives every block a real basis over all its momentum states and
    # its multiplicity: 2 exactly for the conjugate momenta 0 < m < N/2
    built = []

    def recording(terms, sector, *args):
        built.append(sector)
        return _blocks(terms, sector, *args)

    monkeypatch.setattr(spectral, "_blocks", recording)
    decompose(ModelSpec.uniform(n, 1.0, 0.5, 0.2), pair=(1, 3))
    assert len(built) == 2 * (n // 2 + 1)
    # O_r's builder is made first, then H's, on the same sector
    assert all(o_r is h for o_r, h in zip(built[::2], built[1::2]))
    made = built[::2]
    assert [sector.states.size for sector in made] == [math.comb(n, k)
                                                      for k in range(n // 2 + 1)]
    for sector in made:
        for momentum in sector.momenta:
            keep, columns, weights = momentum.keep, momentum.columns, momentum.weights
            size = np.count_nonzero(keep)
            assert columns and all(col.size == size for col in columns)
            # one weight per slot and state in the K R basis, none in the identity
            assert (weights is None if momentum.mult == 1
                    else weights.shape == (len(columns), size))
            assert (momentum.mult == 2) == (0 < 2 * momentum.m < n)
    # without translation every block counts once
    decompose(ModelSpec.uniform(n, 1.0, 0.5, 0.2))
    assert len(built) == 2 * (n // 2 + 1) + n + 1
    assert all(momentum.mult == 1 for sector in built[2 * (n // 2 + 1):]
               for momentum in sector.momenta)


@pytest.mark.parametrize("spec", [
    *(ModelSpec.uniform(n, j, delta, b) for n in range(2, 7)
      for j, delta, b in ((1.0, 1.0, 0.3), (-0.8, 0.0, -0.45))),
    random_general_spec(6, seed=61, field_b=0.35),
], ids=[*(f"n{n}-{tag}" for n in range(2, 7) for tag in ("xxx", "xx-neg")), "general"])
def test_identity_basis_adds_no_rounding(spec):
    # a block without translation goes through the identity basis and must
    # come out byte for byte as the plain block built here: the field and
    # z-z terms on the diagonal, then one add.at of every hop and pair flip
    n = spec.n_sites
    terms = spec.pair_terms()
    for states in sector_basis(n) if spec.conserves_sz else parity_basis(n):
        ((mult, basis, block),) = _blocks(terms, _sector(n, states, False), spec.field_b)
        assert mult == 1 and np.array_equal(basis, states)
        where = np.full(1 << n, -1)
        where[states] = np.arange(states.size)
        diag = spec.field_b * (n - 2 * np.bitwise_count(states).astype(np.int64)) + 0.0
        rows, cols, amps = [], [], []
        for bi, bk, hop, flip, zz in terms:
            anti = ((states >> bi) ^ (states >> bk)) & 1
            diag += zz * (1 - 2 * anti)
            for amp, moving in ((hop, 1), (flip, 0)):
                if amp != 0.0:
                    movers = np.nonzero(anti == moving)[0]
                    rows.append(where[states[movers] ^ ((1 << bi) | (1 << bk))])
                    cols.append(movers)
                    amps.append(np.full(movers.size, amp))
        plain = np.diag(diag)
        if rows:
            np.add.at(plain, (np.concatenate(rows), np.concatenate(cols)), np.concatenate(amps))
        assert block.dtype == plain.dtype and block.tobytes() == plain.tobytes()


@pytest.mark.parametrize("n", range(3, 13))
def test_real_blocks_match_complex_momentum_blocks(n):
    # the complex momentum blocks of a sector together hold the spectrum of
    # the plain sector block, which _sector without translation gives; so
    # must the real K R blocks, each tiled by its multiplicity, for every
    # sector with 2k <= N
    for j in (1.0, -0.8, 0.0):
        for delta in (0.0, 0.5, 1.0, 2.0):
            spec = ModelSpec.uniform(n, j, delta)
            for states in sector_basis(n)[:n // 2 + 1]:
                ((_, _, sector),) = _blocks(spec.pair_terms(), _sector(n, states, False), 0.0)
                want = np.linalg.eigvalsh(sector)
                scale = max(1.0, float(np.max(np.abs(want))))
                got = []
                for mult, basis, real in _blocks(spec.pair_terms(), _sector(n, states, True), 0.0):
                    assert real.dtype == np.float64
                    assert basis.shape == real.shape[:1]
                    assert np.max(np.abs(real - real.T)) <= 1e-12 * scale
                    got.append(np.tile(np.linalg.eigvalsh(real), mult))
                got = np.sort(np.concatenate(got))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (j, delta, states.size)
