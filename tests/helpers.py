"""Shared construction helpers and closed-form oracles for the test suite."""

import functools
import math

import numpy as np

from heisenring import ModelSpec, decompose
from heisenring.model import AXES, IDENTITY_2, PAULI, SIGMA_Z, rotate
from heisenring.oracle import build_hamiltonian

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
SINGLET_RHO = np.outer(SINGLET, SINGLET).astype(complex)


@functools.lru_cache(maxsize=None)
def cached_decompose(n, j, delta=1.0, b=0.0):
    spec = ModelSpec.uniform(n, j, delta, b)
    return spec, decompose(spec)


# --- independent closed forms for the two- and three-site isotropic rings ---
# (log Z written in shifted form so beta up to ~100 stays finite)

def log_z_two_site(beta, j=1.0):
    """log(3 exp(-2 beta j) + exp(6 beta j)), evaluated stably."""
    return 6.0 * beta * j + math.log1p(3.0 * math.exp(-8.0 * beta * j))


def u_two_site(beta, j=1.0):
    """6 j (exp(-2 beta j) - exp(6 beta j)) / (3 exp(-2 beta j) + exp(6 beta j))."""
    r = 3.0 * math.exp(-8.0 * beta * j)
    return 6.0 * j * (r / 3.0 - 1.0) / (r + 1.0)


def c_two_site(beta, j=1.0):
    """max{0, (exp(8 beta j) - 3) / (exp(8 beta j) + 3)}."""
    r = 3.0 * math.exp(-8.0 * beta * j)
    return max(0.0, (1.0 - r) / (1.0 + r))


def u_three_site(beta, j=1.0):
    return -3.0 * j * math.tanh(3.0 * beta * j)


def random_general_spec(n, seed, field_b=0.0):
    """General couplings with jx, jy and jz drawn independently: S_z is broken."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        m = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        mats.append(m + m.T)
    return ModelSpec.general(*mats, field_b=field_b)


def eigenvector_matrix(sd):
    """Full-space eigenvectors: column n is the eigenvector of eigenvalue n."""
    dtype = np.result_type(float, *(blk.vectors for blk in sd.eigvec_blocks))
    v = np.zeros((sd.dim, sd.dim), dtype=dtype)
    for states, vecs, cols in sd.eigvec_blocks:
        v[np.ix_(states, cols)] = vecs
    return v


# --- the dense Hamiltonian written out with one np.kron per site ---

def kron_sites(factors, n):
    """Tensor product over sites 1..n, factors[s] on site s, identity elsewhere."""
    out = np.array([[1.0 + 0.0j]])
    for s in range(1, n + 1):
        out = np.kron(out, factors.get(s, IDENTITY_2))
    return out


def kron_hamiltonian(spec):
    """build_hamiltonian's sum, term by term, each term one per-site kron chain."""
    n = spec.n_sites
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    if spec.is_uniform:
        j, delta = spec.coupling.j, spec.coupling.delta
        for i, k in spec.bonds():
            h += j * kron_sites({i: PAULI["x"], k: PAULI["x"]}, n)
            h += j * kron_sites({i: PAULI["y"], k: PAULI["y"]}, n)
            h += j * delta * kron_sites({i: PAULI["z"], k: PAULI["z"]}, n)
    else:
        mats = {"x": spec.coupling.jx, "y": spec.coupling.jy, "z": spec.coupling.jz}
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                for ax in AXES:
                    c = mats[ax][i - 1, k - 1]
                    if i != k and c != 0.0:
                        h += c * kron_sites({i: PAULI[ax], k: PAULI[ax]}, n)
    if spec.field_b != 0.0:
        for i in range(1, n + 1):
            h += spec.field_b * kron_sites({i: SIGMA_Z}, n)
    return h


def second_moment(n, j, delta, b):
    """tr H^2 of the uniform ring: 2^N N [J^2 (2 + delta^2) + B^2].

    H expands in Pauli strings, and tr H^2 = 2^N times the sum of the
    squared coefficients: N bonds of J, J, J*delta and N field terms B.
    At N = 2 both bonds are the same strings, so their coefficients add
    and the J^2 term doubles.
    """
    bonds = 2 * n if n == 2 else n
    return float(1 << n) * (bonds * j * j * (2.0 + delta * delta) + n * b * b)


def check_spectral_moments(sd, n, j, delta, b):
    """Oracles of a values-only spectrum that need no second solve.

    C(N, k) levels per S_z label, sum E = tr H = 0 and
    sum E^2 = second_moment, within 1e-12 of 2^N N (J^2 + B^2).
    """
    labels, counts = np.unique(sd.sector_labels, return_counts=True)
    assert labels.tolist() == [(n - 2 * k) / 2.0 for k in range(n, -1, -1)]
    assert counts.tolist() == [math.comb(n, k) for k in range(n, -1, -1)]
    tol = 1e-12 * (1 << n) * n * (j * j + b * b)
    assert abs(float(np.sum(sd.eigenvalues))) <= tol
    assert abs(float(np.sum(sd.eigenvalues ** 2)) - second_moment(n, j, delta, b)) <= tol


def symmetry_norms(spec):
    """Scale-normalized max|[H, A]| for S_x, S_y, S_z, Q_x and the translation T.

    The total spins are sums of per-site kron chains.  Q_x (sigma_x on every
    site) and T permute the basis, and for a permutation P,
    max|[H, P]| = max|P^T H P - H|, the permuted matrix minus H.
    """
    n, dim = spec.n_sites, spec.dim
    h = build_hamiltonian(spec)
    scale = float(np.max(np.abs(h))) or 1.0
    norms = {}
    for ax in AXES:
        s = 0.5 * sum(kron_sites({i: PAULI[ax]}, n) for i in range(1, n + 1))
        norms[f"S_{ax}"] = float(np.max(np.abs(h @ s - s @ h))) / scale
    for name, p in (("Q_x", np.arange(dim) ^ (dim - 1)), ("T_shift", rotate(np.arange(dim, dtype=np.int64), 1, n))):
        norms[name] = float(np.max(np.abs(h[np.ix_(p, p)] - h))) / scale
    return norms
