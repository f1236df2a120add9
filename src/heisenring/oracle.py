"""Full-space reference routes for verify and the tests.

Each function here computes from dense 2^N x 2^N matrices a quantity that
the production modules compute another way, so the two routes can be
checked against each other:

- embed places an operator on chosen sites of the full register;
- gibbs_state forms the thermal density matrix from eigenvectors;
- reduce_to_pair partial-traces full states onto a site pair, against
  twoqubit.pair_rdms, which averages per-eigenstate pair tables;
- correlations takes tr(sigma_ia sigma_jb rho) with full-space operators,
  against twoqubit.correlations_from_rdm on the 4x4 matrices;
- eigen_residuals checks a decomposition against the dense Hamiltonian.

gibbs_state builds one 2^N x 2^N matrix; reduce_to_pair and correlations
take an (R, 2^N, 2^N) stack of them, and one state is a stack of one
(rho[None]).

Every placement goes through model.site_indices, so no identity kron is
formed.  No production module imports this one, and the package does not
re-export it.
"""

from __future__ import annotations

import numpy as np

from ._blas import threads_for
from .model import site_indices
from .spectral import SpectralDecomposition
from .thermo import _weights
from .twoqubit import _OPS, CorrelationSet, TwoQubitRDM, _correlation_set


def embed(op: np.ndarray, sites: tuple[int, ...], n: int) -> np.ndarray:
    """Operator `op` on `sites` of an n-site register, identity elsewhere.

    The tensor factors of `op` act on `sites` in the order given, so
    embed(kron(a, b), (3, 1), n) puts a on site 3 and b on site 1.  Each
    entry op[a, b] is written once per configuration of the other sites,
    at the rows and columns site_indices gives; no identity kron is formed.
    """
    idx = site_indices(sites, n)
    out = np.zeros((1 << n, 1 << n), dtype=np.result_type(op, float))
    out[idx[:, None, :], idx[None, :, :]] = op[:, :, None]
    return out


def gibbs_state(sd: SpectralDecomposition, temperature: float) -> np.ndarray:
    """Thermal density matrix exp(-H/T)/Z; at T = 0 the uniform ground-multiplet mixture.

    rho takes the dtype of the eigenvectors: it is real for real blocks (the
    S_z sector and parity blocks, and diagonalize_full of build_hamiltonian,
    which is real), so the dense checks on it run in real arithmetic, and complex
    for complex blocks.
    """
    if sd.eigvec_blocks is None:
        raise ValueError("Gibbs state needs eigenvectors; rerun with vectors=True")
    p = _weights(sd, [temperature])[0][0]
    dtype = np.result_type(float, *(blk.vectors for blk in sd.eigvec_blocks))
    rho = np.zeros((sd.dim, sd.dim), dtype=dtype)
    for states, v, cols in sd.eigvec_blocks:
        with threads_for(states.size):
            rho[np.ix_(states, states)] = (v * p[cols]) @ v.conj().T
    return rho


def reduce_to_pair(rho: np.ndarray, i: int, j: int) -> TwoQubitRDM:
    """Partial traces of the (R, 2^N, 2^N) `rho` onto sites (i, j), site i
    mapped to the first tensor slot."""
    m = np.asarray(rho)
    n = int(m.shape[-1]).bit_length() - 1
    if m.ndim != 3 or m.shape[1:] != (1 << n, 1 << n):
        raise ValueError("expected an (R, 2^N, 2^N) stack of density matrices, "
                         f"got shape {m.shape}")
    idx = site_indices((i, j), n)
    rdm = m[:, idx[:, None, :], idx[None, :, :]].sum(axis=3)
    return TwoQubitRDM.from_matrix(rdm, (i, j))


def correlations(rho: np.ndarray, i: int, j: int) -> CorrelationSet:
    """Correlation tensors from full-space states: g[a,b] = tr(sigma_ia sigma_jb rho).

    Evaluated with full 2^N operators, never through the 4x4 reduced
    matrices, so it checks the partial-trace route independently.  rho is
    an (R, 2^N, 2^N) stack; each operator is embedded once for the stack,
    and each trace is one sum over one state.
    """
    m = np.asarray(rho)
    n = int(m.shape[-1]).bit_length() - 1
    if m.ndim != 3 or m.shape[1:] != (1 << n, 1 << n):
        raise ValueError("expected an (R, 2^N, 2^N) stack of density matrices, "
                         f"got shape {m.shape}")
    values = np.empty((m.shape[0], len(_OPS)), dtype=complex)
    for k, op in enumerate(_OPS):
        e = embed(op, (i, j), n)
        for r, state in enumerate(m):
            values[r, k] = np.sum(e * state.T)
    return _correlation_set(values)


def eigen_residuals(h: np.ndarray, sd: SpectralDecomposition) -> tuple[float, float]:
    """(worst eigenpair residual scaled by max(1,|E|), worst orthonormality defect).

    Vectors of different blocks have disjoint supports, so orthonormality
    is checked within each block.
    """
    if sd.eigvec_blocks is None:
        raise ValueError("decomposition carries no eigenvectors")
    resid = ortho = 0.0
    for states, v, cols in sd.eigvec_blocks:
        e = sd.eigenvalues[cols]
        with threads_for(states.size):
            r = h[:, states] @ v
            gram = v.conj().T @ v
        r[states] -= v * e[None, :]
        scale = np.maximum(1.0, np.abs(e))
        resid = max(resid, float(np.max(np.linalg.norm(r, axis=0) / scale)))
        ortho = max(ortho, float(np.max(np.abs(gram - np.eye(cols.size)))))
    return resid, ortho
