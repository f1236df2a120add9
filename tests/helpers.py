"""Shared construction helpers and closed-form oracles for the test suite."""

import functools
import math

import numpy as np

from heisenring import ModelSpec, decompose
from heisenring.model import AXES, IDENTITY_2, PAULI, SIGMA_Z

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
