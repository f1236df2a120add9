"""Hermitian eigendecomposition in symmetry blocks built from bit rules.

Every Hamiltonian the model can express conserves the spin-flip parity
prod_i sigma^z_i: its x-x and y-y terms flip two spins at a time and the
field lies along z.  When the x and y couplings are equal it conserves
total S_z as well.  decompose groups the computational basis states by
their number of down spins k (Hamming weight of the basis index) when S_z
is conserved, and by the parity of k when it is not, diagonalizes each
block independently and merges the eigenvalues.  It never forms the full
2^N x 2^N matrix, and it keeps the eigenvectors as the blocks themselves:
321 MB at N = 14, where one dense real eigenvector matrix would take
2.1 GB.  S_z-breaking specs are capped at N = 12 (model.ModelSpec), where
each parity block is 2048 wide.

One builder, _blocks, writes every block from a list of pair terms, for
H those of ModelSpec.pair_terms.  It splits a block by lattice momentum
(Sandvik, AIP Conf. Proc. 1297, 135 (2010)): one block per crystal
momentum 2*pi*m/N over the orbit representatives of a sector.  Values-only
decompositions of uniform rings take the translation orbits, which
_sector works out from the rotations of the sector's own states, so no
table over all 2^N states is formed; at N = 14 the largest block is then
246 wide instead of 3432.  Two pairings cut the work further.  H is real,
so momenta m and -m share a spectrum and only 0 <= m <= N/2 is
diagonalised.  The global spin flip maps sector k onto sector N - k and
reverses the field, so only the sectors with 2k <= N are diagonalised, at
zero field, and each field shift is added afterwards.  At N = 14 that is
57 eigensolves instead of 184, each on a real symmetric block: those
with 0 < m < N/2 come in the real basis of the antiunitary K R, complex
conjugation times the site reflection (Sandvik, arXiv:1101.3281, section
4.2), and all others in the identity basis.  The pair mode of decompose
solves them with eigh and keeps, per eigenstate, only two sums over the
N site pairs at the pair's distance r, sigma^z sigma^z and
sigma^x sigma^x + sigma^y sigma^y, read off each block's vectors; with
the S_z label they fix the pair RDM of any two sites of a uniform ring,
which is how every sweep of a uniform ring runs.
Every other decomposition takes no translation, so every state is its
own representative, and gets the plain sector or parity block, field
included.  _sector does a sector's orbit bookkeeping once: the
representatives, the momenta they reach, and every block's real basis
and multiplicity.  _blocks writes each block through _real_block in that
basis, with one phase rule for every momentum, and the pair mode builds
H's and O_r's blocks from the same sector.

What depends on the bits alone is built once per process, on first use.
_sector_for (functools.cache) keeps the _Sector of each key
(N, k, parity, translate): its states, orbits, shifts, momenta and real
bases.  Each sector's moves dict keeps, per term structure (the bits
and the nonzero hop and flip flags of every pair term, one flat tuple of
ints), the _Moves: the z-z signs, each move's element count, and every
element's row, column, shift and sqrt(R_a / R_b), but only for the
structures of uniform rings, of which a sector holds at most N + 1 (H
with and without hops, O_r at each distance r = 1 .. N - 1).  A general
ring builds its moves for each decomposition and drops them with it:
general rings with different patterns of zero couplings would each add
theirs, and one structure's moves grow with its coupled pairs.
model.site_indices keeps its tables by (sites, N) in a functools.cache
too.  Keys are values, never id().  What one momentum block takes from
the moves, its hop mask, phases and indices, is rebuilt for every block
and dropped with it: kept too, it made a values-only ring at N = 14 keep
2.0 MiB instead of the 0.71 MiB below.  Every kept array is read-only,
and _blocks scales them by the spec's amplitudes with the same
operations in the same order as when they are built afresh, so every
output is byte-identical.  The sectors are bounded, at most N + N/2 + 4
per ring size.  At MAX_SITES = 14 one values-only decomposition of a
uniform ring keeps 0.71 MiB, its pair mode 0.87 MiB, its vectors mode
4.9 MiB, and all N + 1 structures in every mode 7.9 MiB.  A general ring
keeps its sectors only, whatever its couplings: 1.14 MiB at N = 14,
where one with all 91 pairs coupled would keep 25.3 MiB with its moves,
and 0.29 MiB for the two parity sectors of an S_z-breaking ring at
N = 12, against 8.8 MiB with all 66 pairs' moves; a
site_indices table at N = 14 takes 128 KiB.

Each block's eigensolve and products run under _blas.threads_for: a block
narrower than _blas.WIDE = 512 on one OpenBLAS thread, a wider one with
the count OpenBLAS started with.  So every momentum block up to N = 14
(246 wide) and every S_z sector up to N = 11 (462) is solved on one
thread, while the widest S_z sectors from N = 12 (924 and up) and the
parity blocks from N = 10 (512 and up) keep the starting count.

This module holds the one production eigensolver.  Its references, the
dense diagonalisation of the dense Hamiltonian (oracle.diagonalize_full
of oracle.build_hamiltonian), the sector bookkeeping that the tests
check the blocks against (oracle.sector_basis, oracle.parity_basis and
oracle.expected_sector_sizes) and the residual check of a decomposition
(oracle.eigen_residuals), live in heisenring.oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from ._blas import threads_for
from .model import ModelSpec, read_only, reflect, rotate

DEGENERACY_RTOL = 1e-9


class EigenBlock(NamedTuple):
    """Eigenvectors supported on a subset of the basis.

    vectors[:, c] is the eigenvector of eigenvalues[columns[c]] restricted to
    the ascending basis indices `states`; it vanishes on every other state.
    """

    states: np.ndarray
    vectors: np.ndarray
    columns: np.ndarray


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors of one Hamiltonian.

    eigvec_blocks holds the eigenvectors as EigenBlocks with disjoint
    supports (one per S_z sector or parity sector from decompose, one over
    all states from oracle.diagonalize_full), or None when the decomposition was
    computed values-only or in the pair mode.  sector_labels holds the
    total-S_z quantum number of each eigenvalue for S_z-conserving models,
    else None.  pair_tables holds the per-eigenstate pair elements, shape
    (dim, 16), keyed by site pair, that twoqubit.pair_rdms reads.  The
    pair mode of decompose fills it with the entry of its pair from
    (S_z label, ZZ_n, XY_n).  Every other decomposition starts with it
    empty, and pair_rdms stores there each pair's table, built from the
    eigenvectors on its first call for the pair.  Beyond these fields it
    keeps two read-only arrays of one value per eigenstate, built on first
    use: excitations, E_n - E_0, and magnetization, <sum_i sigma^z_i>.
    """

    eigenvalues: np.ndarray
    eigvec_blocks: tuple[EigenBlock, ...] | None
    ground_degeneracy: int
    sector_labels: np.ndarray | None = None
    pair_tables: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def excitations(self) -> np.ndarray:
        """E_n - E_0 of every eigenvalue, read-only.

        thermo builds every Boltzmann weight and U from it; it is kept with
        the decomposition, because a sweep calls thermo_grid once per row
        block and find_threshold once per probe.
        """
        de = self.eigenvalues - self.eigenvalues[0]
        read_only(de)
        return de

    @cached_property
    def magnetization(self) -> np.ndarray:
        """<sum_i sigma^z_i> of every eigenstate, read-only.

        From the sector labels it is 2 S_z; without them it is read off the
        eigenvectors, each block's |v|^2 weighted by sum_i sigma^z_i of its
        basis states, and no |v|^2 is kept.  thermo.thermo_grid reduces M
        with it and the pair mode's X-form table divides it by N, so it is
        kept like excitations.
        """
        if self.sector_labels is not None:
            spin = 2.0 * self.sector_labels
        elif self.eigvec_blocks is not None:
            n = self.dim.bit_length() - 1
            spin = np.empty(self.dim)
            for states, v, cols in self.eigvec_blocks:
                # bitwise_count returns uint8, which would wrap under subtraction
                ds = (n - 2 * np.bitwise_count(states).astype(np.int64)).astype(float)
                spin[cols] = ds @ np.abs(v) ** 2
        else:
            raise ValueError("magnetization needs sector labels or eigenvectors")
        read_only(spin)
        return spin


def ground_degeneracy_count(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues within DEGENERACY_RTOL * max(|E_0|, |E_last|) of E_0."""
    e0 = eigenvalues[0]
    scale = max(abs(e0), abs(eigenvalues[-1]))
    return int(np.sum(np.abs(eigenvalues - e0) <= DEGENERACY_RTOL * scale))


class _Momentum(NamedTuple):
    """One momentum block of a _Sector.

    keep marks the representatives a with m * R_a = 0 (mod N), index[a] is
    the block index of a kept representative a and basis holds the kept
    ones in block order.  columns and weights are the block's real basis:
    per column slot, each momentum state's column (columns) and its weight
    there (a row of weights).  mult is the block's multiplicity: 2 in the
    K R basis, 1 in the identity basis, whose one slot puts each state in
    its own column with weight 1 and has weights None.
    """

    m: int
    keep: np.ndarray
    index: np.ndarray
    columns: tuple
    mult: int
    basis: np.ndarray
    weights: np.ndarray | None


class _Sector(NamedTuple):
    """The orbit bookkeeping of one sector, shared by every operator _blocks builds on it.

    For each of the ascending `states`, T^shift takes it to its orbit's
    representative reps[orbit].  reps holds the representatives, ascending,
    period their orbit lengths R_a and spin their sum_i sigma^z_i, N - 2k.
    momenta holds the _Momentum of every momentum 0 <= m <= N/2 that has
    states.  moves holds the _Moves of each term structure _blocks has
    kept on the sector, keyed by the structure.
    """

    n: int
    states: np.ndarray
    orbit: np.ndarray
    shift: np.ndarray
    reps: np.ndarray
    period: np.ndarray
    spin: np.ndarray
    momenta: list
    moves: dict


@cache
def _sector_for(n: int, k: int, parity: bool, translate: bool) -> _Sector:
    """The _Sector of the states with k down spins, or with k's parity of them (parity=True).

    Built once per key and process, with read-only states.
    """
    indices = np.arange(1 << n, dtype=np.int64)
    down = np.bitwise_count(indices)
    states = indices[((down & 1) if parity else down) == k]
    read_only(states)
    return _sector(n, states, translate)


def _sector(n: int, states: np.ndarray, translate: bool) -> _Sector:
    """The _Sector of `states` (closed under the operators) under translation or none.

    With translate, a state's representative is its smallest rotation,
    at the smallest shift that reaches it, and R_a counts the states that
    share the representative a; without it, each state is its own.

    Every block gets its real basis and multiplicity here (see _blocks).
    A block at 0 < m < N/2 gets the K R basis of _kr_columns and counts
    twice, for m and -m.  A block at m = 0 or 2m = N is real in its
    momentum states, so it gets the identity basis, one column of weight 1
    per state, and counts once; so does the one block, at m = 0, of a
    sector without translation.  Every array it makes is read-only.
    """
    rep, shift = states.copy(), np.zeros_like(states)
    for r in range(1, n if translate else 1):
        rotated = rotate(states, r, n)
        smaller = rotated < rep
        rep[smaller] = rotated[smaller]
        shift[smaller] = r
    reps = states[rep == states]
    orbit = np.searchsorted(reps, rep)
    r_a = np.bincount(orbit)
    spin = n - 2 * np.bitwise_count(reps).astype(np.int64)
    read_only(shift, reps, orbit, r_a, spin)
    momenta, mirror = [], None
    for m in range(n // 2 + 1):
        keep = (m * r_a) % n == 0
        if not keep.any():
            continue
        index = np.cumsum(keep) - 1
        if (2 * m) % n == 0:
            size = index[-1] + 1
            columns, mult, weights = (np.arange(size),), 1, None
        else:
            if mirror is None:
                # R a for each representative, found among the sector's states
                at = np.searchsorted(states, reflect(reps, n))
                mirror = orbit[at], shift[at]
            partner, l_mirror = mirror
            slots = _kr_columns(index[partner[keep]],
                                np.exp(-2j * np.pi * m * l_mirror[keep] / n))
            columns = tuple(col for col, _ in slots)
            mult, weights = 2, np.array([w for _, w in slots])
        basis = reps[keep]
        read_only(keep, index, basis, *columns, *(() if weights is None else (weights,)))
        momenta.append(_Momentum(m, keep, index, columns, mult, basis, weights))
    return _Sector(n, states, orbit, shift, reps, r_a, spin, momenta, {})


class _Moves(NamedTuple):
    """What the pair terms of one structure take from a _Sector, amplitudes aside.

    A structure lists bit_i, bit_k, hop != 0 and flip != 0 of each pair
    term in turn, as one flat tuple.  signs[t] is sigma^z sigma^z on term
    t's bits of each representative.  The moves, term by term a hop
    (antiparallel spins) where hop != 0 and then a pair flip (parallel
    spins) where flip != 0, are concatenated: counts holds each move's
    element count.  Element h runs from representative cols[h] to rows[h],
    shifts[h] is the l of b = T^l b' and roots[h] = sqrt(R_a / R_b), b the
    representative of b'.
    """

    signs: np.ndarray
    counts: np.ndarray
    roots: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    shifts: np.ndarray


def _moves(sector: _Sector, structure: tuple) -> _Moves:
    """The _Moves of `structure` on `sector`, every term at once, read-only.

    The moves are the rows of one mask over (move, representative), so
    np.nonzero lists them in move order and each move's elements in
    ascending representative order; b' is found among the sector's states
    by searchsorted, and T^l takes it to its representative.
    """
    reps = sector.reps
    table = np.array(structure, dtype=np.int64).reshape(-1, 4)
    bits = table[:, :2]
    bit_i, bit_k = ((reps >> bits[:, c, None]) & 1 for c in (0, 1))
    signs = ((1 - 2 * bit_i) * (1 - 2 * bit_k)).astype(np.int8)
    # hops move antiparallel spins (anti = 1), pair flips parallel ones,
    # term by term: the hop first
    term, kind = np.nonzero(table[:, 2:])
    moving = 1 - kind
    move, cols = np.nonzero((bit_i ^ bit_k)[term] == moving[:, None])
    flip = (1 << bits[term, 0]) | (1 << bits[term, 1])
    at = np.searchsorted(sector.states, reps[cols] ^ flip[move])
    rows, shifts = sector.orbit[at], sector.shift[at]
    counts = np.bincount(move, minlength=term.size)
    roots = np.sqrt(sector.period[cols] / sector.period[rows])
    moves = _Moves(signs, counts, roots, rows, cols, shifts)
    read_only(*moves)
    return moves


def _blocks(terms, sector: _Sector, field_b: float, keep: bool = True):
    """The block of an n-site operator on a sector, built from bit rules and split by momentum.

    The operator sums `terms`, (bit_i, bit_k, hop, flip, zz):
    ModelSpec.pair_terms for H, or the N pairs at distance r with
    (2, 0, 0) for decompose's O_r^xy.  `sector` (_sector) holds states
    closed under the operator, an S_z sector or a parity sector of an
    S_z-breaking spec, with their orbits, and field_b is the field B, or
    0.0 to leave the field out: a state with k down spins gets B(N - 2k)
    on the diagonal.  Yields (multiplicity, basis, block) with one real
    symmetric block per lattice momentum 2*pi*m/N, 0 <= m <= N/2, that
    has states (Sandvik, arXiv:1101.3281, section 4.1).  Its basis is the
    momentum states of the orbit representatives a with m * R_a = 0
    (mod N), R_a the period;
    `basis` holds those representatives in block order.  A hop or pair
    flip from a reaches the state b' with representative b = T^l b' and has
    element amplitude * exp(-2*pi*i*m*l/N) * sqrt(R_a / R_b); the diagonal
    holds the field, the z-z terms and hops inside an orbit.  b' is looked
    up among the sector's states by searchsorted.  Every block is written
    through _real_block in the real basis, and yielded with the
    multiplicity, that _sector gave it.  The operator is real, so the
    block at -m is the complex conjugate of the block at m and has the
    same eigenvalues: each block with 0 < m < N - m stands for both and
    has multiplicity 2.  Blocks at m = 0 and 2m = N, where the phases are
    +-1, are real in the momentum states: their basis is the identity and
    they count once.

    Those with 0 < m < N - m, complex in the momentum basis, come in the
    basis of K R.  Only translation orbits give them, and only operators
    that commute with the site reflection R (model.reflect) get those:
    a uniform H, and O_r, as R maps pairs at distance r onto such pairs.
    The antiunitary K R, K complex conjugation, maps T to T^-1, so it maps
    momentum m into itself: it sends the momentum state of a to
    phi_a = exp(-2*pi*i*m*l/N) times that of abar, the representative of
    R a, with R a = T^-l abar, and squares to 1 (Sandvik, arXiv:1101.3281, section
    4.2).  Its invariant vectors form a real orthonormal basis, in which
    the block (_real_block) is real with the same eigenvalues.  That basis
    depends on the orbits alone, so the sector holds it and H and O_r on
    one sector share it, and `basis` is unchanged: each column of the real
    block lies on a and abar, and R keeps sigma^z sigma^z sums.

    Without translation (_sector with translate=False) every state is a
    representative of period 1 and shift 0, so only m = 0 has states and
    its one block, in the identity basis, is the plain block of the
    operator on `states` in the computational basis.

    What depends on the bits alone, the _Moves of the terms' structure,
    the sector keeps from the first call that asks for it with keep, and
    a call without keep builds them if the sector has none and drops them.
    The field, the amplitudes and each momentum block's hop mask, phases
    and indices are computed here: the diagonal adds the z-z terms one at
    a time, and each element is amplitude * sqrt(R_a / R_b), then times
    its phase.
    """
    structure = tuple([key for bi, bk, hop, flip, _ in terms
                       for key in (bi, bk, bool(hop != 0.0), bool(flip != 0.0))])
    moves = sector.moves.get(structure)
    if moves is None:
        moves = _moves(sector, structure)
        if keep:
            sector.moves[structure] = moves
    # + 0.0: a -0.0 field must not leave -0.0 on the diagonal
    diag = field_b * sector.spin + 0.0
    for zz_sign in np.array([zz for *_, zz in terms]).reshape(-1, 1) * moves.signs:
        diag += zz_sign
    amps = np.repeat(np.array([amp for _, _, hop, flip, _ in terms
                               for amp in (hop, flip) if amp != 0.0]), moves.counts) * moves.roots

    rows, cols = moves.rows, moves.cols
    for momentum in sector.momenta:
        hops = momentum.keep[rows] & momentum.keep[cols]
        phases = np.exp(-2j * np.pi * momentum.m * moves.shifts[hops] / sector.n)
        block = _real_block(diag[momentum.keep], momentum, momentum.index[rows[hops]],
                            momentum.index[cols[hops]], amps[hops] * phases)
        yield momentum.mult, momentum.basis, block
        del block  # the caller's reference is the last one


def _kr_columns(partner: np.ndarray, phases: np.ndarray):
    """The real basis of K R on one momentum block with 0 < m < N/2 (see _blocks).

    _sector gives it to those blocks and the identity basis to every other.

    partner (the block index of abar) and phases (phi_a) are indexed by
    the block's momentum states.  A pair a < abar puts
    (e_a + phi_a e_abar)/sqrt(2) in column a and
    i(e_a - phi_a e_abar)/sqrt(2) in column abar; a self-partner a = abar
    puts sqrt(phi_a) e_a in column a.  So every momentum state reaches at
    most two columns, its own and its partner's.  Returns, for the column
    min(a, abar) and then for max(a, abar), each state's column and weight
    there; a self-partner has a zero second weight.
    """
    states = np.arange(partner.size)
    below, above = states < partner, states > partner
    root = math.sqrt(0.5)
    low = (np.minimum(states, partner),
           np.where(below, root, np.where(above, root * phases, np.sqrt(phases))))
    high = (np.maximum(states, partner),
            np.where(below, 1j * root, np.where(above, -1j * root * phases, 0.0)))
    return low, high


# the weight of the identity basis, broadcast over every element
_UNIT = np.ones((1, 1))
read_only(_UNIT)


def _real_block(diag: np.ndarray, momentum: _Momentum, rows: np.ndarray,
                cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A momentum block rewritten in the real basis that _sector gave it.

    diag is indexed by the block's momentum states and values[h] is move
    element h of the block, at block row rows[h] and column cols[h].  Each
    element is multiplied by its row slot's conjugated weight and its
    column slot's weight, and lands on at most four entries of the real
    block, one per slot pair, and one in the identity basis; only the real
    part of each product is added, since the imaginary parts cancel in the
    sum.  The additions run slot pair by slot pair, element by element, in
    one add.at.  The diagonal stays diagonal: R maps the z-z terms onto
    themselves.
    """
    block = np.diag(diag)
    slots = momentum.columns
    # per slot pair (s, s') and element, the flat index of slot s's column
    # at the element's row and slot s''s at its column
    flat = (np.array([col[rows] for col in slots])[:, None, :] * diag.size
            + np.array([col[cols] for col in slots])[None, :, :]).ravel()
    if momentum.weights is None:
        left = right = _UNIT
    else:
        left, right = momentum.weights[:, rows].conj(), momentum.weights[:, cols]
    left = left * values
    np.add.at(block.reshape(-1), flat, (left[:, None, :] * right).real.ravel())
    return block


def decompose(spec: ModelSpec, vectors: bool = True,
              pair: tuple[int, int] | None = None) -> SpectralDecomposition:
    """Eigendecomposition of the spec's Hamiltonian, one symmetry block at a time.

    Every block comes from _blocks, built from bit rules, never from a
    dense Hamiltonian.  An S_z-conserving spec gets one block per S_z sector
    and its sector labels.  Any other spec still conserves the spin-flip
    parity prod_i sigma^z_i, since its x-x and y-y terms flip two spins at
    a time, so it gets two blocks, over the states with an even and with an
    odd down-spin count, and no labels.  With
    vectors=False only eigenvalues (and labels) are computed.  A uniform
    ring then diagonalises only the sectors with 2k <= N, at zero field,
    split into the momentum blocks 0 <= m <= N/2 of its translation
    orbits (_sector with translate=True), each real symmetric (_blocks),
    so eigvalsh runs on float64 only.  The global
    spin flip maps sector k onto sector N - k and reverses the field, so
    sector k gets those values shifted by +B(N - 2k) and sector N - k the
    same values shifted by -B(N - 2k).  Every other decomposition takes
    no translation, one plain block per sector with the field on its
    diagonal.

    pair=(i, j), two distinct sites 1..N of a uniform spec, selects the
    pair mode: the blocks of vectors=False, each solved by eigh, whose
    vectors v are dropped once two sums over the N site pairs at distance
    r = (j - i) mod N are read off them: ZZ_n = sum_c v_c^2 zz_r(rep_c) of
    sigma^z sigma^z, from the representatives' bits (not from the diagonal
    of the O_r block, which also holds hops inside an orbit), and
    XY_n = v^T O_r v of O_r^xy = sum (sigma^x sigma^x + sigma^y sigma^y),
    whose block _blocks builds on the same sector, orbits and real basis.
    So memory stays O(2^N).  Every pair at distance r is alike, and
    g_xx = g_yy, so with m_n = 2 S_z / N and g_n = ZZ_n / N the pair's
    per-eigenstate RDM is the X state u+- = (1 +- 2 m_n + g_n)/4,
    w1 = w2 = (1 - g_n)/4, z = XY_n / (4N) (at r = N/2 the N pairs count
    each pair twice, which the N absorbs).  Its rows fill pair_tables[pair].
    A degenerate level shares one weight, so the basis eigh picks inside it
    does not matter; a conjugate pair of momenta carries opposite spin
    currents, which cancel in Im z, which the table sets to 0.
    """
    n = spec.n_sites
    if pair is not None:
        if not (spec.is_uniform and len(set(pair)) == 2 and all(1 <= s <= n for s in pair)):
            raise ValueError(f"pair mode needs distinct sites 1..{n} of a uniform ring: {pair}")
        r = (pair[1] - pair[0]) % n
        # O_r^xy: the N site pairs at distance r, as (bit, bit) terms
        xy_terms = [(bit, (bit - r) % n, 2.0, 0.0, 0.0) for bit in range(n)]
    paired = spec.is_uniform and (not vectors or pair is not None)
    # the sectors by down-spin count k, or by its parity
    ks = range(n // 2 + 1 if paired else n + 1) if spec.conserves_sz else (0, 1)
    terms = spec.pair_terms()
    all_evals, all_keys, pair_rows, vec_blocks = [], [], [], []
    for k in ks:
        parts, pair_parts = [], []
        sector = _sector_for(n, k, not spec.conserves_sz, paired)
        states = sector.states
        xy_blocks = None if pair is None else _blocks(xy_terms, sector, 0.0)
        # only a uniform ring's structures are kept (see the module docstring)
        for mult, basis, block in _blocks(terms, sector, 0.0 if paired else spec.field_b,
                                          spec.is_uniform):
            with threads_for(basis.size):
                if pair is not None:
                    evals, bvecs = np.linalg.eigh(block)
                    _, _, xy_block = next(xy_blocks)
                    # sigma^z sigma^z summed over the pairs at distance r: N less
                    # twice the bits in which a representative and its turn by r differ
                    turned = rotate(basis, r, n)
                    zz_r = n - 2 * np.bitwise_count(basis ^ turned).astype(np.int64)
                    # once per momentum it stands for, as its eigenvalues
                    pair_parts += [np.array([zz_r @ (bvecs * bvecs),
                                             np.sum(bvecs * (xy_block @ bvecs), axis=0)])] * mult
                    del bvecs, xy_block  # only ZZ_n and XY_n are kept
                elif vectors:
                    evals, bvecs = np.linalg.eigh(block)
                    vec_blocks.append((states, bvecs))
                else:
                    evals = np.linalg.eigvalsh(block)
            parts += [evals] * mult
            del block  # one block alive at a time: free it before the next is built
        evals = np.concatenate(parts)
        # the sort key among equal levels: the S_z label, or the parity
        key = (n - 2 * k) / 2.0 if spec.conserves_sz else float(k)
        field_k = spec.field_b * (n - 2 * k)
        for sign in (1, -1) if paired and 2 * k < n else (1,):
            all_evals.append(evals + sign * field_k if paired else evals)
            all_keys.append(np.full(evals.size, sign * key))
            if pair is not None:
                # the spin flip keeps both sums, so they carry over to sector N - k
                pair_rows.append(np.concatenate(pair_parts, axis=1))

    evals = np.concatenate(all_evals)
    keys = np.concatenate(all_keys)
    order = np.lexsort((keys, evals))
    evals = evals[order]
    keys = keys[order]

    blocks = None
    if vectors and pair is None:
        # position of each block column in the sorted spectrum
        columns = np.split(np.argsort(order),
                           np.cumsum([states.size for states, _ in vec_blocks])[:-1])
        blocks = tuple(EigenBlock(states, bvecs, cols)
                       for (states, bvecs), cols in zip(vec_blocks, columns))

    sd = SpectralDecomposition(
        eigenvalues=evals,
        eigvec_blocks=blocks,
        ground_degeneracy=ground_degeneracy_count(evals),
        sector_labels=keys if spec.conserves_sz else None,
    )
    if pair is not None:
        zz, xy = np.concatenate(pair_rows, axis=1)[:, order]
        sd.pair_tables[tuple(pair)] = _x_form_table(zz / n, xy / n, sd.magnetization / n)
    return sd


def _x_form_table(g: np.ndarray, xy: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per-eigenstate X-form pair RDMs, shape (dim, 16), as _pair_table.

    g is g_zz, xy is g_xx + g_yy and m the per-site magnetization of each
    eigenstate; decompose gives the formulas.
    """
    table = np.zeros((g.size, 16))
    table[:, 0] = (1 + 2 * m + g) / 4   # u+ at (00, 00)
    table[:, 15] = (1 - 2 * m + g) / 4  # u- at (11, 11)
    table[:, 5] = table[:, 10] = (1 - g) / 4  # w1, w2
    table[:, 9] = table[:, 6] = xy / 4  # z at (10, 01) and its conjugate at (01, 10)
    return table

