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
plus the two corners).

Partial tracing iterates basis-index bits directly; no 2^N x 2^N
permutations are ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AXES, PAULI, SIGMA_Z, IDENTITY_2, bit_for_site, kron_at
from .spectral import SpectralDecomposition
from .thermo import GibbsState, thermal_probabilities

_X_PATTERN = np.zeros((4, 4), dtype=bool)
_X_PATTERN[np.arange(4), np.arange(4)] = True
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True


@dataclass(frozen=True)
class TwoQubitRDM:
    """4x4 reduced density matrix of a site pair plus its extracted elements."""

    sites: tuple[int, int]
    matrix: np.ndarray
    u_plus: float
    u_minus: float
    w1: float
    w2: float
    z: complex
    off_structure_norm: float

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, sites: tuple[int, int]) -> "TwoQubitRDM":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        off = float(np.max(np.abs(m[~_X_PATTERN]))) if np.any(~_X_PATTERN) else 0.0
        return cls(
            sites=tuple(sites),
            matrix=m,
            u_plus=float(m[0, 0].real),
            u_minus=float(m[3, 3].real),
            w1=float(m[1, 1].real),
            w2=float(m[2, 2].real),
            z=complex(m[2, 1]),
            off_structure_norm=off,
        )

    @property
    def m_bar(self) -> float:
        """Per-site magnetization u+ - u-."""
        return self.u_plus - self.u_minus


@dataclass(frozen=True)
class CorrelationSet:
    """3x3 correlation tensor g[a, b] = <sigma_ia sigma_jb> and M/N."""

    g: np.ndarray
    m_per_site: float


def _insert_zero_bits(values: np.ndarray, positions: tuple[int, int]) -> np.ndarray:
    """Expand indices by inserting 0 bits at the given (ascending) positions."""
    out = values
    for p in positions:
        low = out & ((1 << p) - 1)
        out = ((out >> p) << (p + 1)) | low
    return out


def _pair_row_indices(n: int, i: int, j: int) -> list[np.ndarray]:
    """Full-space indices for each of the four pair states, over all rest configs.

    Element a of the returned list covers pair state |a1 a2> with a1 the
    site-i bit; entry r is the basis index with the remaining n-2 sites in
    configuration r.
    """
    if i == j:
        raise ValueError(f"need two distinct sites, got ({i}, {j})")
    bi, bj = bit_for_site(i, n), bit_for_site(j, n)
    rest = _insert_zero_bits(np.arange(1 << (n - 2), dtype=np.int64),
                             tuple(sorted((bi, bj))))
    return [rest | ((a >> 1) << bi) | ((a & 1) << bj) for a in range(4)]


def _as_matrix(rho: GibbsState | np.ndarray) -> np.ndarray:
    return rho.matrix if isinstance(rho, GibbsState) else np.asarray(rho)


def reduce_to_pair(rho: GibbsState | np.ndarray, i: int, j: int) -> TwoQubitRDM:
    """Partial trace onto sites (i, j), site i mapped to the first tensor slot."""
    m = _as_matrix(rho)
    n = int(m.shape[0]).bit_length() - 1
    if m.shape != (1 << n, 1 << n):
        raise ValueError(f"density matrix dimension {m.shape[0]} is not a power of 2")
    rows = _pair_row_indices(n, i, j)
    rdm = np.empty((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            rdm[a, b] = m[rows[a], rows[b]].sum()
    return TwoQubitRDM.from_matrix(rdm, (i, j))


def _pair_table(sd: SpectralDecomposition, i: int, j: int) -> np.ndarray:
    """Per-eigenstate pair-RDM elements, shape (dim, 16): row n is rho_ij^(n) flattened.

    Element (a, b) pairs each basis state whose (i, j) bits read a with the
    state that has the same other bits and reads b; only pairs inside one
    block contribute.  An S_z block thus fills u+, w1, w2, u-, z and z*,
    and the single dense block fills all 16.
    """
    if sd.eigvec_blocks is None:
        raise ValueError("pair RDM needs eigenvectors; rerun with vectors=True")
    if i == j:
        raise ValueError(f"need two distinct sites, got ({i}, {j})")
    n = sd.dim.bit_length() - 1
    bi, bj = bit_for_site(i, n), bit_for_site(j, n)
    pair_bits = [((a >> 1) << bi) | ((a & 1) << bj) for a in range(4)]
    dtype = np.result_type(*(blk.vectors for blk in sd.eigvec_blocks))
    table = np.zeros((sd.dim, 16), dtype=dtype)
    for states, vecs, cols in sd.eigvec_blocks:
        rest = states & ~pair_bits[3]
        label = ((states >> bi) & 1) * 2 + ((states >> bj) & 1)
        for a in range(4):
            rows = np.nonzero(label == a)[0]
            for b in range(4):
                partner = rest[rows] | pair_bits[b]
                pos = np.minimum(np.searchsorted(states, partner), states.size - 1)
                hit = states[pos] == partner
                if hit.any():
                    table[cols, 4 * a + b] = np.sum(
                        vecs[rows[hit]] * vecs[pos[hit]].conj(), axis=0)
    return table


def pair_rdm_thermal(sd: SpectralDecomposition, temperature: float,
                     i: int, j: int) -> TwoQubitRDM:
    """Thermal pair RDM as the Boltzmann average of per-eigenstate pair RDMs.

    Equivalent to reduce_to_pair(gibbs_state(sd, T), i, j).  The first call
    for a pair builds its per-eigenstate table block by block and caches it
    on `sd`; every call then costs one (dim,) x (dim, 16) product.
    """
    table = sd.pair_tables.get((i, j))
    if table is None:
        table = sd.pair_tables[(i, j)] = _pair_table(sd, i, j)
    p = thermal_probabilities(sd, temperature)
    return TwoQubitRDM.from_matrix((p @ table).reshape(4, 4), (i, j))


def correlations(rho: GibbsState | np.ndarray, i: int, j: int) -> CorrelationSet:
    """Correlation tensor from the full-space state: g[a,b] = tr(sigma_ia sigma_jb rho).

    Deliberately evaluated with full 2^N operators so it can serve as an
    independent cross-check of the partial-trace route; use
    correlations_from_rdm for bulk work.
    """
    m = _as_matrix(rho)
    n = int(m.shape[0]).bit_length() - 1
    if i == j:
        raise ValueError(f"need two distinct sites, got ({i}, {j})")
    for site in (i, j):
        bit_for_site(site, n)
    mt = m.T
    g = np.empty((3, 3))
    for a, ax in enumerate(AXES):
        for b, bx in enumerate(AXES):
            op = kron_at({i: PAULI[ax], j: PAULI[bx]}, n)
            val = np.sum(op * mt)
            if abs(val.imag) > 1e-8:
                raise ValueError(f"correlation G_{ax}{bx} has imaginary part {val.imag:.3e}")
            g[a, b] = val.real
    mz = np.sum(kron_at({i: SIGMA_Z}, n) * mt)
    return CorrelationSet(g=g, m_per_site=float(mz.real))


def correlations_from_rdm(rdm: TwoQubitRDM) -> CorrelationSet:
    """Correlation tensor evaluated on the 4x4 reduced matrix."""
    mt = rdm.matrix.T
    g = np.empty((3, 3))
    for a, ax in enumerate(AXES):
        for b, bx in enumerate(AXES):
            val = np.sum(np.kron(PAULI[ax], PAULI[bx]) * mt)
            if abs(val.imag) > 1e-8:
                raise ValueError(f"correlation G_{ax}{bx} has imaginary part {val.imag:.3e}")
            g[a, b] = val.real
    mz = np.sum(np.kron(SIGMA_Z, IDENTITY_2) * mt)
    return CorrelationSet(g=g, m_per_site=float(mz.real))


def check_element_relations(rdm: TwoQubitRDM, cs: CorrelationSet) -> dict[str, float]:
    """Residuals of the matrix-element identities tying the RDM to g and M/N.

    u+- = (1 +- 2*Mbar + G_zz)/4,  u+ - u- = Mbar,  u+ + u- = (1 + G_zz)/2,
    Re z = (G_xx + G_yy)/4,  Im z = (G_xy - G_yx)/4.
    """
    g, mbar = cs.g, cs.m_per_site
    return {
        "u_plus": abs(rdm.u_plus - 0.25 * (1 + 2 * mbar + g[2, 2])),
        "u_minus": abs(rdm.u_minus - 0.25 * (1 - 2 * mbar + g[2, 2])),
        "m_bar": abs((rdm.u_plus - rdm.u_minus) - mbar),
        "u_sum": abs((rdm.u_plus + rdm.u_minus) - 0.5 * (1 + g[2, 2])),
        "re_z": abs(rdm.z.real - 0.25 * (g[0, 0] + g[1, 1])),
        "im_z": abs(rdm.z.imag - 0.25 * (g[0, 1] - g[1, 0])),
    }
