"""Reference routes for verify and the tests.

Each name here computes a quantity that the production modules compute
another way, or checks one they compute, so the two can be held against
each other.  The production path (sweep, threshold, spectrum) calls none
of them.

- The dense Hamiltonian: build_hamiltonian forms the 2^N x 2^N matrix
  term by term, against the symmetry blocks spectral.decompose builds
  from bit rules; hermiticity_defect measures a matrix against its
  adjoint, and embed places an operator on chosen sites of the register.
- The dense eigensolver: diagonalize_full solves one dense matrix up to
  FULL_PATH_MAX_SITES sites; sector_basis and parity_basis group the
  computational basis by down-spin count and by its parity, and
  expected_sector_sizes gives the sector widths C(n, k);
  eigen_residuals checks a decomposition against the dense Hamiltonian.
- The Gibbs matrix: gibbs_state forms the thermal density matrix from
  eigenvectors.  check_derivatives and zz_from_log_z take central finite
  differences of log Z (steps FIELD_STEP and DELTA_STEP) against U, M
  and the sigma^z sigma^z bond sum.
- Pair states: reduce_to_pair partial-traces full states onto a site
  pair, against twoqubit.pair_rdms, which averages per-eigenstate pair
  tables; correlations takes tr(sigma_ia sigma_jb rho) with full-space
  operators, against twoqubit.correlations_from_rdm on the 4x4 matrices;
  check_element_relations ties the pair matrices to their correlations.
- CHSH frames: MeasurementFrame, chsh_expectation, random_frames,
  frame_chunks, frame_expectations, random_frame_search and
  optimal_frame evaluate explicit measurement frames, against the
  Horodecki measure bell.violation_measure reads off the spectrum of
  T T^t.  A frame belongs to one state, so they take one 3x3 tensor.

gibbs_state builds one 2^N x 2^N matrix; reduce_to_pair and correlations
take an (R, 2^N, 2^N) stack of them, and one state is a stack of one
(rho[None]).

Every placement goes through model.site_indices, so no identity kron is
formed.  No production module imports this one, and the package does not
re-export it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ._blas import threads_for
from .model import AXES, PAIR_PAULI, SIGMA_Z, ModelSpec, site_indices
from .spectral import EigenBlock, SpectralDecomposition, decompose, ground_degeneracy_count
from .thermo import _weights, thermo_grid
from .twoqubit import _OPS, CorrelationSet, TwoQubitRDM, _correlation_set

FULL_PATH_MAX_SITES = 12
# field step of the central difference in check_derivatives
FIELD_STEP = 1e-4
# anisotropy step of the central difference in zz_from_log_z
DELTA_STEP = 1e-4


# ---------------------------------------------------------------------------
# the dense Hamiltonian

def _real_part(name: str, m: np.ndarray) -> np.ndarray:
    # build_hamiltonian adds real parts only, so an imaginary part must be zero
    if np.any(m.imag != 0.0):
        raise RuntimeError(f"{name} has a nonzero imaginary part; H would not be real")
    return m.real


# H is a sum of sigma_a x sigma_a bond terms and sigma_z field terms, all
# real: the two factors of i in sigma_y x sigma_y multiply to -1
_REAL_PAIR_PAULI = {ax: _real_part(f"sigma_{ax} x sigma_{ax}", m)
                    for ax, m in PAIR_PAULI.items()}
_REAL_SIGMA_Z = _real_part("sigma_z", SIGMA_Z)


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Dense real symmetric (float64) Hamiltonian matrix of the ring described by `spec`.

    Every term is real: sigma_x x sigma_x and sigma_z x sigma_z are, and so
    is sigma_y x sigma_y, whose two factors of i multiply to -1; no lone
    sigma_y occurs.  Only the real parts of the terms are added, so the
    matrix equals the complex kron sum entry for entry, and the dense
    eigensolvers run in real arithmetic.

    Uniform mode evaluates the periodic sum literally, one 4x4 bond term
    per bond (so the N=2 bond is counted twice, see the model module
    docstring).  General mode runs the ordered double sum over site pairs,
    one sigma_a x sigma_a per nonzero coupling.  Each term is scatter-added
    into h at the entries site_indices gives, so no identity kron and no
    per-term 2**n x 2**n temporary is formed.  Memory is O(4**n).  The
    production eigensolver, spectral.decompose, never forms this matrix.
    """
    n = spec.n_sites
    h = np.zeros((spec.dim, spec.dim))

    def add(op, sites):
        idx = site_indices(sites, n)
        h[idx[:, None, :], idx[None, :, :]] += op[:, :, None]

    if spec.is_uniform:
        j, delta = spec.coupling.j, spec.coupling.delta
        term = (j * _REAL_PAIR_PAULI["x"] + j * _REAL_PAIR_PAULI["y"]
                + j * delta * _REAL_PAIR_PAULI["z"])
        for bond in spec.bonds():
            add(term, bond)
    else:
        mats = {"x": spec.coupling.jx, "y": spec.coupling.jy, "z": spec.coupling.jz}
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if i == k:
                    continue
                for ax in AXES:
                    c = mats[ax][i - 1, k - 1]
                    if c != 0.0:
                        add(c * _REAL_PAIR_PAULI[ax], (i, k))
    if spec.field_b != 0.0:
        for i in range(1, n + 1):
            add(spec.field_b * _REAL_SIGMA_Z, (i,))
    return h


def hermiticity_defect(a: np.ndarray) -> float:
    """Scale-normalized Hermiticity defect max|a - a^dagger| / max(1, max|a|)."""
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - a.conj().T))) / scale


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


# ---------------------------------------------------------------------------
# the dense eigensolver and the sector bookkeeping

def diagonalize_full(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a dense Hermitian matrix.

    Raises on non-Hermitian input; eigensolver convergence failures
    propagate as numpy.linalg.LinAlgError.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] > (1 << FULL_PATH_MAX_SITES):
        raise ValueError(
            f"dense full-path limit is dim {1 << FULL_PATH_MAX_SITES}; "
            "use decompose for larger rings"
        )
    if hermiticity_defect(h) > 1e-10:
        raise ValueError("matrix is not Hermitian within tolerance")
    if np.iscomplexobj(h) and np.max(np.abs(h.imag)) == 0.0:
        h = h.real
    with threads_for(h.shape[0]):
        evals, vecs = np.linalg.eigh(h)
    every_state = np.arange(evals.size, dtype=np.int64)
    return SpectralDecomposition(
        eigenvalues=evals,
        eigvec_blocks=(EigenBlock(every_state, vecs, every_state),),
        ground_degeneracy=ground_degeneracy_count(evals),
    )


def sector_basis(n: int) -> list[np.ndarray]:
    """Basis indices grouped by down-spin count k = 0..n, each ascending."""
    states = np.arange(1 << n, dtype=np.int64)
    weights = np.bitwise_count(states).astype(np.int64)
    return [states[weights == k] for k in range(n + 1)]


def parity_basis(n: int) -> list[np.ndarray]:
    """Basis indices with an even, then an odd, down-spin count, each ascending."""
    states = np.arange(1 << n, dtype=np.int64)
    odd = np.bitwise_count(states) & 1
    return [states[odd == 0], states[odd == 1]]


def expected_sector_sizes(n: int) -> list[int]:
    """Block dimensions C(n, k) for k = 0..n."""
    return [math.comb(n, k) for k in range(n + 1)]


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


# ---------------------------------------------------------------------------
# the Gibbs matrix and finite differences of log Z

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


def _log_z(spec: ModelSpec, temperature: float) -> float:
    """log Z of `spec` at one temperature, from its values-only spectrum."""
    return _weights(decompose(spec, vectors=False), [temperature])[1][0]


def check_derivatives(spec: ModelSpec, temperature: float) -> tuple[float, float]:
    """Residuals of U and M against central finite differences of log Z.

    U is checked as -d(log Z)/d(beta) on the same spectrum; M as
    -(1/beta) d(log Z)/dB, re-diagonalizing at B +- FIELD_STEP.  Returns the two
    absolute residuals.  Every spectrum is values-only, except that an
    S_z-breaking spec has no sector labels, so the magnetization of each
    eigenstate is read off its eigenvectors.
    """
    if temperature <= 0:
        raise ValueError("finite-difference check needs temperature > 0")
    sd = decompose(spec, vectors=not spec.conserves_sz)
    beta = 1.0 / temperature
    dbeta = 1e-4 * max(1.0, beta)
    # rows: T, then beta + dbeta and beta - dbeta
    grid = thermo_grid(sd, [temperature, 1.0 / (beta + dbeta), 1.0 / (beta - dbeta)])
    u_fd = -(grid.log_z[1] - grid.log_z[2]) / (2.0 * dbeta)

    up, down = (_log_z(replace(spec, field_b=spec.field_b + step), temperature)
                for step in (FIELD_STEP, -FIELD_STEP))
    m_fd = -(up - down) / (2.0 * FIELD_STEP * beta)
    return float(abs(u_fd - grid.u[0])), float(abs(m_fd - grid.m[0]))


def zz_from_log_z(spec: ModelSpec, temperature: float) -> float:
    """<sum_bonds sigma^z sigma^z> of a uniform ring as -(T/J) d(log Z)/d(delta).

    H depends on delta only through J delta sum_bonds sigma^z sigma^z, so
    by Hellmann-Feynman d(log Z)/d(delta) = -(J/T) <sum_bonds sigma^z sigma^z>.
    The derivative is a central difference of values-only spectra at
    delta +- DELTA_STEP; no eigenvector enters.
    """
    if temperature <= 0:
        raise ValueError("finite-difference check needs temperature > 0")
    if not spec.is_uniform or spec.coupling.j == 0.0:
        raise ValueError("the delta derivative needs a uniform ring with J != 0")

    c = spec.coupling
    up, down = (_log_z(replace(spec, coupling=replace(c, delta=c.delta + step)), temperature)
                for step in (DELTA_STEP, -DELTA_STEP))
    dlog_z = (up - down) / (2.0 * DELTA_STEP)
    return float(-temperature / spec.coupling.j * dlog_z)


# ---------------------------------------------------------------------------
# pair states

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


def check_element_relations(rdm: TwoQubitRDM, cs: CorrelationSet) -> dict[str, np.ndarray]:
    """(R,) residuals of the matrix-element identities tying the RDMs to g and M/N.

    u+- = (1 +- 2*Mbar + G_zz)/4,  u+ - u- = Mbar,  u+ + u- = (1 + G_zz)/2,
    Re z = (G_xx + G_yy)/4,  Im z = (G_xy - G_yx)/4.
    """
    g, mbar = cs.g, cs.m_per_site
    return {
        "u_plus": abs(rdm.u_plus - 0.25 * (1 + 2 * mbar + g[:, 2, 2])),
        "u_minus": abs(rdm.u_minus - 0.25 * (1 - 2 * mbar + g[:, 2, 2])),
        "m_bar": abs((rdm.u_plus - rdm.u_minus) - mbar),
        "u_sum": abs((rdm.u_plus + rdm.u_minus) - 0.5 * (1 + g[:, 2, 2])),
        "re_z": abs(rdm.z.real - 0.25 * (g[:, 0, 0] + g[:, 1, 1])),
        "im_z": abs(rdm.z.imag - 0.25 * (g[:, 0, 1] - g[:, 1, 0])),
    }


# ---------------------------------------------------------------------------
# CHSH frames

@dataclass(frozen=True, eq=False)
class MeasurementFrame:
    """Two measurement directions per party, each a unit 3-vector."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError(f"{name} must be unit norm, |{name}| = {np.linalg.norm(v)!r}")
            object.__setattr__(self, name, v)


def chsh_expectation(t: np.ndarray, frame: MeasurementFrame) -> float:
    """Signed CHSH expectation a.T(b + b') + a'.T(b - b') for one frame."""
    return float(frame.a @ (t @ (frame.b + frame.b_prime))
                 + frame.a_prime @ (t @ (frame.b - frame.b_prime)))


def random_frames(count: int, seed: int) -> np.ndarray:
    """(count, 4, 3) array of frames, directions uniform on the sphere.

    Deterministic in `seed`; every frame derives from the one master stream,
    so a given (count, seed) pair always produces the same frames no matter
    how they are later evaluated or parallelized.
    """
    return _draw_frames(np.random.default_rng(seed), count)


def frame_chunks(count: int, seed: int, chunk: int) -> Iterator[np.ndarray]:
    """random_frames(count, seed) in successive pieces of at most `chunk` frames.

    The pieces come from the one stream of default_rng(seed), drawn in
    turn, so joined they are random_frames(count, seed) and no more than
    one piece is formed at a time.  A direction of near-zero norm is
    redrawn from the stream after its own piece rather than after all
    `count` frames; that has never happened, and would change the frames
    after it.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        yield _draw_frames(rng, min(chunk, count - start))


def _draw_frames(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next `count` frames of `rng`'s stream (random_frames)."""
    v = rng.normal(size=(count, 4, 3))
    norms = np.linalg.norm(v, axis=2, keepdims=True)
    while np.any(norms < 1e-12):  # essentially never; guards the division
        bad = norms[:, :, 0] < 1e-12
        v[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=2, keepdims=True)
    return v / norms


def frame_expectations(t: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """CHSH expectations for a batch of frames (vectorized)."""
    a, ap, b, bp = frames[:, 0], frames[:, 1], frames[:, 2], frames[:, 3]
    return (np.einsum("ki,ij,kj->k", a, t, b + bp)
            + np.einsum("ki,ij,kj->k", ap, t, b - bp))


def random_frame_search(t: np.ndarray, n_frames: int = 10_000,
                        seed: int = 0) -> float:
    """Largest |<CHSH>| over `n_frames` seeded random frames.

    Can approach but never exceed the Horodecki measure; used as a
    consistency probe, not as the maximizer (bell.violation_measure is exact).
    """
    return float(np.max(np.abs(frame_expectations(t, random_frames(n_frames, seed)))))


def optimal_frame(t: np.ndarray) -> MeasurementFrame:
    """A frame that attains the Horodecki maximum, built from the SVD of T.

    With T = U S W^t and s1 >= s2 the top singular values, measuring along
    b, b' = cos(th) w1 +- sin(th) w2 (th = atan2(s2, s1)) and a, a' = u1, u2
    gives <CHSH> = 2 sqrt(s1^2 + s2^2).
    """
    u_mat, s, wt = np.linalg.svd(t)
    if s[0] < 1e-14:  # zero correlations: any frame gives 0
        ex, ey = np.eye(3)[0], np.eye(3)[1]
        return MeasurementFrame(ex, ey, ex, ey)
    theta = math.atan2(s[1], s[0])
    c1, c2 = wt[0], wt[1]
    b = math.cos(theta) * c1 + math.sin(theta) * c2
    b_prime = math.cos(theta) * c1 - math.sin(theta) * c2
    a = u_mat[:, 0]
    a_prime = u_mat[:, 1] if s[1] >= 1e-14 else np.eye(3)[np.argmin(np.abs(u_mat[:, 0]))]
    if s[1] < 1e-14:
        a_prime = a_prime - (a_prime @ a) * a
        a_prime = a_prime / np.linalg.norm(a_prime)
    return MeasurementFrame(a, a_prime, b, b_prime)
