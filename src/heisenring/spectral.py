"""Hermitian eigendecomposition, full or blocked by total-S_z sectors.

The sector path groups computational basis states by their number of down
spins k (Hamming weight of the basis index), diagonalizes each C(N, k)
block independently and merges the eigenvalues.  It never forms the full
2^N x 2^N matrix, and it keeps the eigenvectors as the blocks themselves:
321 MB at N = 14, where one dense complex eigenvector matrix would take
4.3 GB.  Specs whose x and y couplings differ break S_z and go through the
dense path, capped at N = 12; its eigenvectors form a single block over
all 2^N states.

Values-only decompositions of uniform rings split each sector further by
lattice momentum (Sandvik, AIP Conf. Proc. 1297, 135 (2010)):
one block per crystal momentum 2*pi*m/N over the translation-orbit
representatives, built from the same bit rules and never from the dense
sector block.  At N = 14 the largest block is 246 wide instead of 3432.
Two pairings cut the work further.  H is real, so momenta m and -m share a
spectrum and only 0 <= m <= N/2 is diagonalised.  The global spin flip
maps sector k onto sector N - k and reverses the field, so only the
sectors with 2k <= N are diagonalised, at zero field, and each field
shift is added afterwards.  At N = 14 that is 57 eigensolves instead of
184.

The residual check of a decomposition against the dense Hamiltonian,
eigen_residuals, is a reference route and lives in heisenring.oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import ModelSpec, build_hamiltonian, hermiticity_defect, translation

FULL_PATH_MAX_SITES = 12
DEGENERACY_RTOL = 1e-9


class EigenBlock(NamedTuple):
    """Eigenvectors supported on a subset of the basis.

    vectors[:, c] is the eigenvector of eigenvalues[columns[c]] restricted to
    the ascending basis indices `states`; it vanishes on every other state.
    """

    states: np.ndarray
    vectors: np.ndarray
    columns: np.ndarray


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors of one Hamiltonian.

    eigvec_blocks holds the eigenvectors as EigenBlocks with disjoint
    supports (one per S_z sector, or one over all states on the dense path),
    or None when the decomposition was computed values-only.  sector_labels
    holds the total-S_z quantum number of each eigenvalue for S_z-conserving
    models, else None.  pair_tables caches the per-eigenstate pair elements
    built by twoqubit.pair_rdm_thermal, keyed by site pair.
    """

    eigenvalues: np.ndarray
    eigvec_blocks: tuple[EigenBlock, ...] | None
    ground_energy: float
    ground_degeneracy: int
    sector_labels: np.ndarray | None = None
    pair_tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def ground_degeneracy_count(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues within the degeneracy tolerance of the lowest."""
    e0 = eigenvalues[0]
    return int(np.sum(np.abs(eigenvalues - e0) <= DEGENERACY_RTOL * max(1.0, abs(e0))))


def diagonalize_full(h: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """Eigendecomposition of a dense Hermitian matrix.

    With vectors=False only the eigenvalues are computed and eigvec_blocks
    is None.  Raises on non-Hermitian input; eigensolver convergence
    failures propagate as numpy.linalg.LinAlgError.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] > (1 << FULL_PATH_MAX_SITES):
        raise ValueError(
            f"dense full-path limit is dim {1 << FULL_PATH_MAX_SITES}; "
            "use diagonalize_sectored for larger rings"
        )
    if hermiticity_defect(h) > 1e-10:
        raise ValueError("matrix is not Hermitian within tolerance")
    if np.iscomplexobj(h) and np.max(np.abs(h.imag)) == 0.0:
        h = h.real
    if not vectors:
        evals, blocks = np.linalg.eigvalsh(h), None
    else:
        evals, vecs = np.linalg.eigh(h)
        every_state = np.arange(evals.size, dtype=np.int64)
        blocks = (EigenBlock(every_state, vecs, every_state),)
    return SpectralDecomposition(
        eigenvalues=evals,
        eigvec_blocks=blocks,
        ground_energy=float(evals[0]),
        ground_degeneracy=ground_degeneracy_count(evals),
    )


def sector_basis(n: int) -> list[np.ndarray]:
    """Basis indices grouped by down-spin count k = 0..n, each ascending."""
    states = np.arange(1 << n, dtype=np.int64)
    weights = np.bitwise_count(states).astype(np.int64)
    return [states[weights == k] for k in range(n + 1)]


def _sector_block_from_spec(spec: ModelSpec, states: np.ndarray, k: int) -> np.ndarray:
    """One fixed-k block of H built directly from bit rules (no dense H).

    Diagonal collects the z-z couplings and the field; the x/y couplings
    connect states that differ by one antiparallel swap.  Requires an
    S_z-conserving spec (equal x and y couplings).
    """
    n = spec.n_sites
    m = states.size
    block = np.zeros((m, m))
    diag = np.full(m, spec.field_b * (n - 2 * k), dtype=float)

    if spec.is_uniform:
        j, delta = spec.coupling.j, spec.coupling.delta
        pair_terms = [(i, kk, 2.0 * j, j * delta) for i, kk in spec.bonds()]
    else:
        jx, jz = spec.coupling.jx, spec.coupling.jz
        pair_terms = []
        for i in range(1, n + 1):
            for kk in range(i + 1, n + 1):
                cx, cz = jx[i - 1, kk - 1], jz[i - 1, kk - 1]
                if cx != 0.0 or cz != 0.0:
                    # ordered double sum counts the pair twice
                    pair_terms.append((i, kk, 4.0 * cx, 2.0 * cz))

    for i, kk, hop, zz in pair_terms:
        bi, bk = n - i, n - kk
        zi = 1 - 2 * ((states >> bi) & 1)
        zk = 1 - 2 * ((states >> bk) & 1)
        diag += zz * zi * zk
        anti = np.nonzero(zi != zk)[0]
        if anti.size and hop != 0.0:
            flipped = states[anti] ^ ((1 << bi) | (1 << bk))
            rows = np.searchsorted(states, flipped)
            block[rows, anti] += hop
    block[np.arange(m), np.arange(m)] += diag
    return block


def orbit_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Translation orbits of all 2^n basis states, indexed by state.

    T is the basis permutation model.translation(n).  Returns (rep, shift,
    period): rep[s] is the smallest state of the orbit of s, T^shift[s]
    takes s to rep[s], and period[s] is the orbit length.
    """
    states = np.arange(1 << n, dtype=np.int64)
    rep, shift = states.copy(), np.zeros_like(states)
    period = np.full_like(states, n)
    p = translation(n)
    rotated = states
    for r in range(1, n):
        rotated = p[rotated]
        smaller = rotated < rep
        rep[smaller] = rotated[smaller]
        shift[smaller] = r
        period[(rotated == states) & (period == n)] = r
    return rep, shift, period


def _momentum_blocks(spec: ModelSpec, states: np.ndarray, orbits):
    """The zero-field block of a uniform ring on `states`, split by lattice momentum.

    Yields (multiplicity, block) with one Hermitian block per momentum
    2*pi*m/N, 0 <= m <= N/2, that has states.  Its basis is the momentum
    states of the orbit representatives a with m * R_a = 0 (mod N), R_a the
    period.  A hop from a reaches the state b' with representative b = T^l b'
    and has element 2J exp(-2*pi*i*m*l/N) sqrt(R_a / R_b); the diagonal holds
    the z-z terms, as in _sector_block_from_spec, and no field.  H is real,
    so the block at -m is the complex conjugate of the block at m and has
    the same eigenvalues: each block with 0 < m < N - m stands for both and
    has multiplicity 2.  Blocks at m = 0 and 2m = N are real and count once.
    """
    rep, shift, period = orbits
    n = spec.n_sites
    j, delta = spec.coupling.j, spec.coupling.delta
    reps = states[rep[states] == states]
    r_a = period[reps]
    diag = np.zeros(reps.size)
    rows, cols, ls, amps = [], [], [], []
    for i, kk in spec.bonds():
        bi, bk = n - i, n - kk
        diag += j * delta * (1 - 2 * ((reps >> bi) & 1)) * (1 - 2 * ((reps >> bk) & 1))
        anti = np.nonzero(((reps >> bi) ^ (reps >> bk)) & 1)[0]
        flipped = reps[anti] ^ ((1 << bi) | (1 << bk))
        rows.append(np.searchsorted(reps, rep[flipped]))
        cols.append(anti)
        ls.append(shift[flipped])
        amps.append(2.0 * j * np.sqrt(r_a[anti] / period[flipped]))
    rows, cols, ls, amps = map(np.concatenate, (rows, cols, ls, amps))

    for m in range(n // 2 + 1):
        keep = (m * r_a) % n == 0
        dim = int(keep.sum())
        if dim == 0:
            continue
        index = np.cumsum(keep) - 1
        hops = keep[rows] & keep[cols]
        amp, l = amps[hops], ls[hops]
        if (2 * m) % n == 0:
            block = np.diag(diag[keep])
            values = amp * (-1.0) ** (2 * m * l // n)
        else:
            block = np.diag(diag[keep].astype(complex))
            values = amp * np.exp(-2j * np.pi * m * l / n)
        np.add.at(block, (index[rows[hops]], index[cols[hops]]), values)
        yield (1 if (2 * m) % n == 0 else 2), block
        del block  # the caller's reference is the last one


def diagonalize_sectored(spec: ModelSpec, vectors: bool = True) -> SpectralDecomposition:
    """Sector-blocked eigendecomposition of an S_z-conserving spec.

    Each block is built from bit rules, never from a dense Hamiltonian.
    With vectors=False only eigenvalues and sector labels are computed.  A
    uniform ring then diagonalises only the sectors with 2k <= N, at zero
    field, split into the momentum blocks 0 <= m <= N/2 of _momentum_blocks.
    The global spin flip maps sector k onto sector N - k and reverses the
    field, so sector k gets those values shifted by +B(N - 2k) and sector
    N - k the same values shifted by -B(N - 2k).
    """
    if not spec.conserves_sz:
        raise ValueError("spec does not conserve S_z (x and y couplings differ)")
    n = spec.n_sites
    all_evals, all_labels, vec_blocks = [], [], []
    if spec.is_uniform and not vectors:
        orbits = orbit_tables(n)
        for k, states in enumerate(sector_basis(n)[:n // 2 + 1]):
            parts = []
            for mult, block in _momentum_blocks(spec, states, orbits):
                parts.append(np.tile(np.linalg.eigvalsh(block), mult))
                del block  # one block alive at a time: free it before the next is built
            evals = np.concatenate(parts)
            for sign in (1, -1) if 2 * k < n else (1,):
                all_evals.append(evals + sign * spec.field_b * (n - 2 * k))
                all_labels.append(np.full(evals.size, sign * (n - 2 * k) / 2.0))
    else:
        for k, states in enumerate(sector_basis(n)):
            if vectors:
                evals, bvecs = np.linalg.eigh(_sector_block_from_spec(spec, states, k))
                vec_blocks.append((states, bvecs))
            else:
                evals = np.linalg.eigvalsh(_sector_block_from_spec(spec, states, k))
            all_evals.append(evals)
            all_labels.append(np.full(evals.size, (n - 2 * k) / 2.0))

    evals = np.concatenate(all_evals)
    labels = np.concatenate(all_labels)
    order = np.lexsort((labels, evals))
    evals = evals[order]
    labels = labels[order]

    blocks = None
    if vectors:
        # position of each block column in the sorted spectrum
        columns = np.split(np.argsort(order),
                           np.cumsum([states.size for states, _ in vec_blocks])[:-1])
        blocks = tuple(EigenBlock(states, bvecs, cols)
                       for (states, bvecs), cols in zip(vec_blocks, columns))

    return SpectralDecomposition(
        eigenvalues=evals,
        eigvec_blocks=blocks,
        ground_energy=float(evals[0]),
        ground_degeneracy=ground_degeneracy_count(evals),
        sector_labels=labels,
    )


def check_dense_cap(spec: ModelSpec) -> None:
    """Refuse, before anything is allocated, a spec too large for the dense path."""
    if not spec.conserves_sz and spec.n_sites > FULL_PATH_MAX_SITES:
        raise ValueError(
            f"n_sites={spec.n_sites} breaks S_z (x and y couplings differ), which "
            f"needs the dense path, capped at n_sites={FULL_PATH_MAX_SITES}"
        )


def decompose(spec: ModelSpec, vectors: bool = True) -> SpectralDecomposition:
    """Sector path when S_z is conserved, else the dense path.

    With vectors=False either path computes eigenvalues only.
    """
    if spec.conserves_sz:
        return diagonalize_sectored(spec, vectors)
    check_dense_cap(spec)
    return diagonalize_full(build_hamiltonian(spec), vectors)


def expected_sector_sizes(n: int) -> list[int]:
    """Block dimensions C(n, k) for k = 0..n."""
    return [math.comb(n, k) for k in range(n + 1)]
