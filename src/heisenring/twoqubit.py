"""Two-site reduced density matrices and spin-spin correlation functions.

The reduced matrix of an S_z-conserving thermal state has the sparsity
pattern (standard basis |00>, |01>, |10>, |11>, site i in the first slot)

        [ u+  .    .   .  ]
        [ .   w1   z*  .  ]
        [ .   z    w2  .  ]
        [ .   .    .   u- ]

z sits at (row |10>, column |01>), which makes it equal to
<sigma_i^+ sigma_j^-> with sigma^+- = (sigma_x +- i sigma_y)/2.
off_structure_norm is the largest modulus among the entries this pattern
forces to zero (all eight off-diagonals outside the inner anti-diagonal
plus the two corners).  An S_z-breaking spec still conserves the
spin-flip parity, so its pair matrices keep the eight entries off the X
pattern at zero and fill the corners as well.

The thermal pair RDM is the Boltzmann average of a per-eigenstate pair
table; no 2^N x 2^N matrix is formed.  The pair mode of
spectral.decompose fills the table of its pair of a uniform ring;
for any other decomposition pair_rdms builds it from the eigenvector
blocks on its first call for the pair (_pair_table) and stores it in the
decomposition's pair_tables, where every later call reads it: a sweep
calls pair_rdms once per row block.
Its full-space references, the partial trace of the Gibbs matrix and the
correlations with full 2^N operators, are in heisenring.oracle.
correlations_from_rdm gives the nine g[a, b] = tr(rho sigma_a x sigma_b)
and M/N by contracting against the ten 4x4 Pauli products; the
CorrelationSet it returns is the one tensor a state needs, for the
concurrence routes and for bell alike.

Thermal states come in stacks, and one state is a stack of one:
pair_rdms gives the (R, 4, 4) reduced matrices of the R rows of a
thermo.thermo_grid as one TwoQubitRDM, and correlations_from_rdm turns
it into one CorrelationSet of R tensors.  pair_rdms reads the
probabilities and the pair table off the one grid, so both come from
the same spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AXES, PAULI, SIGMA_Z, IDENTITY_2, bit_for_site
from .spectral import SpectralDecomposition
from .thermo import ThermoGrid

_X_PATTERN = np.zeros((4, 4), dtype=bool)
_X_PATTERN[np.arange(4), np.arange(4)] = True
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True
_OFF_PATTERN = ~_X_PATTERN

# the nine sigma_a x sigma_b products in row-major (a, b) order, then
# sigma_z x 1; tr(op rho) for each gives g[a, b] and M/N
_OP_NAMES = tuple(f"G_{a}{b}" for a in AXES for b in AXES) + ("M",)
_OPS = np.stack([np.kron(PAULI[a], PAULI[b]) for a in AXES for b in AXES]
                + [np.kron(SIGMA_Z, IDENTITY_2)])
_OPS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TwoQubitRDM:
    """4x4 reduced density matrices of R states of one site pair, and their elements.

    matrix is (R, 4, 4) and each element an (R,) array.
    """

    sites: tuple[int, int]
    matrix: np.ndarray
    u_plus: np.ndarray
    u_minus: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    z: np.ndarray
    off_structure_norm: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, sites: tuple[int, int]) -> "TwoQubitRDM":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValueError(f"expected an (R, 4, 4) stack of pair matrices, got shape {m.shape}")
        # u+, u-, w1, w2 in field order, then z and the off-pattern norm
        diagonal = m[:, (0, 3, 1, 2), (0, 3, 1, 2)].real
        return cls(tuple(sites), m, *diagonal.T, m[:, 2, 1],
                   np.abs(m[:, _OFF_PATTERN]).max(axis=1))

    def rows(self, index) -> "TwoQubitRDM":
        """The states picked by the boolean mask or index array `index`."""
        return TwoQubitRDM.from_matrix(self.matrix[index], self.sites)

    @property
    def m_bar(self) -> np.ndarray:
        """Per-site magnetization u+ - u-."""
        return self.u_plus - self.u_minus


@dataclass(frozen=True, eq=False)
class CorrelationSet:
    """3x3 correlation tensors g[a, b] = <sigma_ia sigma_jb> and M/N of R states.

    g is (R, 3, 3) and m_per_site (R,).
    """

    g: np.ndarray
    m_per_site: np.ndarray

    def __post_init__(self):
        if np.ndim(self.g) != 3 or np.shape(self.g)[1:] != (3, 3):
            raise ValueError(f"expected an (R, 3, 3) stack of correlation tensors, "
                             f"got shape {np.shape(self.g)}")

    def rows(self, index) -> "CorrelationSet":
        """The states picked by the boolean mask or index array `index`."""
        return CorrelationSet(g=self.g[index], m_per_site=self.m_per_site[index])


def _pair_table(sd: SpectralDecomposition, i: int, j: int) -> np.ndarray:
    """Per-eigenstate pair-RDM elements, shape (dim, 16): row n is rho_ij^(n) flattened.

    Element (a, b) pairs each basis state whose (i, j) bits read a with the
    state that has the same other bits and reads b; only pairs inside one
    block contribute.  Every block decompose yields holds states of one
    spin-flip parity, so a state meets only itself, on the diagonal, and
    its partner with both pair bits flipped, at (a, 3 - a): one search per
    block.  An S_z block thus fills u+, w1, w2, u-, z and z*; a parity
    block of an S_z-breaking spec also fills the corners (00, 11) and
    (11, 00), and the eight entries off that X pattern stay exactly 0.  A
    block that mixes parities, such as the one dense block of
    oracle.diagonalize_full, is refused: its reference route is
    oracle.reduce_to_pair of oracle.gibbs_state.
    """
    if sd.eigvec_blocks is None:
        if sd.pair_tables:  # the pair mode keeps one pair's table and no eigenvectors
            raise ValueError(f"the decomposition holds the pair table of "
                             f"{next(iter(sd.pair_tables))} only; decompose(spec, "
                             f"pair=({i}, {j})) gives the pair ({i}, {j})")
        raise ValueError("pair RDM needs eigenvectors; rerun with vectors=True")
    if i == j:
        raise ValueError(f"need two distinct sites, got ({i}, {j})")
    n = sd.dim.bit_length() - 1
    bi, bj = bit_for_site(i, n), bit_for_site(j, n)
    both = (1 << bi) | (1 << bj)
    dtype = np.result_type(*(blk.vectors for blk in sd.eigvec_blocks))
    table = np.zeros((sd.dim, 16), dtype=dtype)
    for states, vecs, cols in sd.eigvec_blocks:
        parity = np.bitwise_count(states) & 1
        if (parity != parity[0]).any():
            raise ValueError("pair table needs blocks of one spin-flip parity; "
                             "reduce oracle.gibbs_state instead")
        label = ((states >> bi) & 1) * 2 + ((states >> bj) & 1)
        partner = states ^ both
        pos = np.minimum(np.searchsorted(states, partner), states.size - 1)
        hit = states[pos] == partner
        # element (a, b) is column 4a + b: (a, a) is 5a, (a, 3 - a) is 3a + 3
        for a in range(4):
            rows = np.nonzero(label == a)[0]
            if rows.size:
                table[cols, 5 * a] = np.sum(vecs[rows] * vecs[rows].conj(), axis=0)
            rows = rows[hit[rows]]
            if rows.size:
                table[cols, 3 * a + 3] = np.sum(vecs[rows] * vecs[pos[rows]].conj(), axis=0)
    return table


def pair_rdms(grid: ThermoGrid, i: int, j: int) -> TwoQubitRDM:
    """Stack of thermal pair RDMs of sites (i, j), one per temperature of `grid`.

    Each is the Boltzmann average of the per-eigenstate pair RDMs: one
    (dim,) x (dim, 16) product per row of grid.probabilities with the pair
    table of grid.decomposition, which the pair mode of decompose filled
    or which the first call for the pair builds, block by block, from the
    eigenvectors and stores in its pair_tables.
    The products stay one per row: a stacked matrix product sums in another
    order and moves the elements in the last bits.
    Equivalent, row by row, to oracle.reduce_to_pair(oracle.gibbs_state(sd, T)[None], i, j).
    """
    sd = grid.decomposition
    table = sd.pair_tables.get((i, j))
    if table is None:
        table = sd.pair_tables[(i, j)] = _pair_table(sd, i, j)
    matrices = np.array([p @ table for p in grid.probabilities], dtype=table.dtype)
    return TwoQubitRDM.from_matrix(matrices.reshape(-1, 4, 4), (i, j))


def _correlation_set(values: np.ndarray) -> CorrelationSet:
    """CorrelationSet from the (R, 10) traces tr(op rho), one column per _OPS entry."""
    bad = np.abs(values.imag[:, :9]) > 1e-8
    if bad.any():
        row, k = np.argwhere(bad)[0]
        raise ValueError(f"correlation {_OP_NAMES[k]} has imaginary part "
                         f"{values.imag[row, k]:.3e}")
    return CorrelationSet(g=values.real[:, :9].reshape(-1, 3, 3).copy(),
                          m_per_site=values.real[:, 9])


def correlations_from_rdm(rdm: TwoQubitRDM) -> CorrelationSet:
    """Correlation tensors of a stack of reduced matrices.

    One contraction per operator keeps the temporaries at (R, 4, 4);
    contracting all ten operators at once would broadcast to (R, 10, 4, 4).
    Each sums its (R, 4, 4) product by add.reduce straight into its row of
    the (10, R) traces, as ndarray.sum would, without that method's Python
    wrapper or a stack: a sweep calls this once per row block.
    """
    mt = rdm.matrix.swapaxes(-1, -2)
    values = np.empty((len(_OPS), mt.shape[0]), dtype=complex)
    for op, out in zip(_OPS, values):
        np.add.reduce(op * mt, axis=(1, 2), out=out)
    return _correlation_set(values.T)

