"""Spin-1/2 ring models, basis-index tables and the ring permutations as bit rules.

Basis convention
----------------
A computational-basis index ``b`` in ``[0, 2**n)`` is read as the bit string
``m_1 m_2 ... m_n`` with ``m_1`` the *most significant* bit.  ``m_i = 0``
means spin up at site ``i`` (sigma_z eigenvalue +1), ``m_i = 1`` spin down.
Sites are 1-based throughout the public API, so site ``i`` lives at bit
position ``n - i`` counted from the least significant bit.

Hamiltonian
-----------
Uniform mode describes the periodic nearest-neighbour ring

    H = J * sum_{i=1..N} [ sigma_i . sigma_{i+1}
                           + (delta - 1) * sigma_iz sigma_{i+1,z} ]
        + B * sum_{i=1..N} sigma_iz,        N+1 == 1.

For N = 2 the periodic sum visits the single bond twice, so the two-site
Hamiltonian carries a factor 2 relative to an open pair.  This is kept on
purpose: it is what makes the two-site spectrum come out as {-6J, 2J x3}
and the partition function as 3*exp(-2*beta*J) + exp(6*beta*J).  Many other
codebases de-duplicate this bond; results differ by a factor 2 in J.

General mode describes  H = sum_{i != j} sum_a J^a_{ij} sigma_ia sigma_ja + B * sum_i sigma_iz
from three symmetric coupling matrices (the ordered double sum counts every
unordered pair twice).

No matrix of H is formed here.  ModelSpec.pair_terms states H as bit
rules on basis indices, and spectral.decompose builds its symmetry blocks
from them; rotate and reflect apply the translation T and the reflection
R to arrays of basis states.  The dense 2^N x 2^N matrix is a reference
route, oracle.build_hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

MAX_SITES = 14
# specs whose x and y couplings differ keep their eigenvectors in two
# spin-flip parity blocks of 2^(N-1) states each, not in S_z sectors
SZ_BREAKING_MAX_SITES = 12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
AXES = ("x", "y", "z")
# sigma_a x sigma_a on a site pair, the 4x4 bond operators
PAIR_PAULI = {ax: np.kron(m, m) for ax, m in PAULI.items()}

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2, *PAIR_PAULI.values()):
    _m.flags.writeable = False


@dataclass(frozen=True)
class UniformCoupling:
    """Single exchange constant J with z-axis anisotropy delta."""

    j: float
    delta: float = 1.0


@dataclass(frozen=True, eq=False)
class GeneralCoupling:
    """Per-pair, per-axis exchange matrices (symmetric, zero diagonal)."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


@dataclass(frozen=True)
class ModelSpec:
    """Full description of one ring: size, couplings, field.

    Attributes
    ----------
    n_sites : int
        Number of spins N, 2 <= N <= MAX_SITES, and N <= SZ_BREAKING_MAX_SITES
        when the x and y couplings differ (memory guards).
    coupling : UniformCoupling or GeneralCoupling
        Uniform (J, delta) ring bonds or arbitrary pair couplings.
    field_b : float
        Magnetic field B coupling to sum_i sigma_iz.
    """

    n_sites: int
    coupling: UniformCoupling | GeneralCoupling
    field_b: float = 0.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.n_sites > MAX_SITES:
            raise ValueError(
                f"n_sites={self.n_sites} exceeds the configured cap of {MAX_SITES}"
            )
        for name, value in {"field_b": self.field_b, **vars(self.coupling)}.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if isinstance(self.coupling, GeneralCoupling):
            n = self.n_sites
            for name, mat in (("jx", self.coupling.jx),
                              ("jy", self.coupling.jy),
                              ("jz", self.coupling.jz)):
                arr = np.asarray(mat, dtype=float)
                if arr.shape != (n, n):
                    raise ValueError(f"{name} must have shape ({n}, {n}), got {arr.shape}")
                if not np.array_equal(arr, arr.T):
                    raise ValueError(f"{name} must be symmetric")
                if np.any(np.diagonal(arr) != 0.0):
                    raise ValueError(f"{name} must have zero diagonal")
                arr = arr.copy()
                arr.flags.writeable = False
                object.__setattr__(self.coupling, name, arr)
            if not self.conserves_sz and n > SZ_BREAKING_MAX_SITES:
                raise ValueError(
                    f"n_sites={n} breaks S_z (x and y couplings differ), which "
                    f"is capped at n_sites={SZ_BREAKING_MAX_SITES}"
                )
        # |H| is at most the pair-term amplitudes plus N |B|; past float
        # range eigh fails
        with np.errstate(over="ignore"):
            bound = sum(abs(hop) + abs(flip) + abs(zz)
                        for *_, hop, flip, zz in self.pair_terms())
            bound += self.n_sites * abs(self.field_b)
        if not np.isfinite(bound):
            raise ValueError("couplings and field overflow: the bound on |H|, "
                             "sum |hop| + |flip| + |zz| + N |B|, is not finite")

    @classmethod
    def uniform(cls, n_sites: int, j: float, delta: float = 1.0,
                field_b: float = 0.0) -> "ModelSpec":
        return cls(n_sites, UniformCoupling(float(j), float(delta)), float(field_b))

    @classmethod
    def general(cls, jx, jy, jz, field_b: float = 0.0) -> "ModelSpec":
        jx = np.asarray(jx, dtype=float)
        if jx.ndim != 2:
            raise ValueError(f"jx must be a matrix, got shape {jx.shape}")
        return cls(jx.shape[0], GeneralCoupling(jx, np.asarray(jy, dtype=float),
                                                np.asarray(jz, dtype=float)),
                   float(field_b))

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    @property
    def is_uniform(self) -> bool:
        return isinstance(self.coupling, UniformCoupling)

    @property
    def conserves_sz(self) -> bool:
        """True when [H, S_z] = 0 holds identically (x and y couplings equal)."""
        if self.is_uniform:
            return True
        return np.array_equal(self.coupling.jx, self.coupling.jy)

    def bonds(self) -> list[tuple[int, int]]:
        """Directed ring bonds (i, i+1) with wrap-around, as the periodic sum visits them."""
        n = self.n_sites
        return [(i, i % n + 1) for i in range(1, n + 1)]

    def pair_terms(self) -> list[tuple[int, int, float, float, float]]:
        """(bit_i, bit_k, hop, flip, zz) for every coupled site pair.

        With couplings jx, jy and jz on a pair, its x and y terms swap
        antiparallel spins on the two bits with amplitude hop = jx + jy and
        flip parallel spins with amplitude flip = jx - jy; its z-z term adds
        zz = jz to the diagonal when they are parallel and -zz when not.  Ring
        bonds, as the periodic sum visits them (twice at N = 2), give
        (2J, 0, J delta); general pairs i < k give (2(jx + jy), 2(jx - jy),
        2 jz), since the ordered double sum counts every pair twice.  A spec
        with jx = jy has flip = 0 on every pair, which is what conserves S_z.
        """
        n = self.n_sites
        if self.is_uniform:
            j, delta = self.coupling.j, self.coupling.delta
            return [(n - i, n - kk, 2.0 * j, 0.0, j * delta) for i, kk in self.bonds()]
        jx, jy, jz = self.coupling.jx, self.coupling.jy, self.coupling.jz
        terms = []
        for a in range(n):
            for b in range(a + 1, n):
                if jx[a, b] != 0.0 or jy[a, b] != 0.0 or jz[a, b] != 0.0:
                    terms.append((n - 1 - a, n - 1 - b, 2.0 * (jx[a, b] + jy[a, b]),
                                  2.0 * (jx[a, b] - jy[a, b]), 2.0 * jz[a, b]))
        return terms

    def is_bond(self, i: int, j: int) -> bool:
        """True when sites i and j are ring neighbours, in either order; (N, 1) included."""
        return (i - j) % self.n_sites in (1, self.n_sites - 1)


def bit_for_site(site: int, n: int) -> int:
    """Bit position (from LSB) of a 1-based site index."""
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    return n - site


def read_only(*arrays: np.ndarray) -> None:
    """Clear the writeable flag of every array given."""
    for a in arrays:
        a.flags.writeable = False


def site_indices(sites, n: int) -> np.ndarray:
    """Full-space basis indices grouped by their bits on `sites`, any sequence of sites.

    The result is a read-only int64 array of shape (2**k, 2**(n-k)),
    built once per (tuple(sites), n) and process (_site_indices).  Row a
    holds every index whose bits on `sites`, read in the order given
    (first site most significant), spell a; the columns run over the other
    sites' configurations in ascending order.
    """
    return _site_indices(tuple(sites), n)


@cache
def _site_indices(sites: tuple[int, ...], n: int) -> np.ndarray:
    k = len(sites)
    for s in sites:
        bit_for_site(s, n)
    if len(set(sites)) != k:
        raise ValueError(f"sites must be distinct, got {sites}")
    order = [s - 1 for s in sites] + [s - 1 for s in range(1, n + 1) if s not in sites]
    grid = np.arange(1 << n, dtype=np.int64).reshape((2,) * n)
    idx = grid.transpose(order).reshape(1 << k, -1)
    read_only(idx)
    return idx


def rotate(states: np.ndarray, r: int, n: int) -> np.ndarray:
    """T^r on an int64 array of n-bit states: each rotated left by r bits, 0 <= r <= n."""
    return ((states << r) | (states >> (n - r))) & ((1 << n) - 1)


def reflect(states: np.ndarray, n: int) -> np.ndarray:
    """The site reflection R: i -> N + 1 - i on an int64 array of n-bit states: bits reversed."""
    r = np.zeros_like(states)
    for bit in range(n):
        r |= ((states >> bit) & 1) << (n - 1 - bit)
    return r


def ring_coupling_matrices(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """General-mode (jx, jy, jz) matrices that reproduce a uniform ring exactly.

    The ordered double sum counts every unordered pair twice, so ring bonds
    get weight J/2 (J*delta/2 on z); for N=2 the uniform sum itself visits
    the single bond twice, which the double counting supplies, so the entry
    is J (J*delta).
    """
    if not spec.is_uniform:
        raise ValueError("ring_coupling_matrices expects a uniform spec")
    n = spec.n_sites
    j, delta = spec.coupling.j, spec.coupling.delta
    w = j if n == 2 else j / 2.0
    jxy = np.zeros((n, n))
    for i, k in {tuple(sorted(b)) for b in spec.bonds()}:
        jxy[i - 1, k - 1] = jxy[k - 1, i - 1] = w
    return jxy, jxy.copy(), jxy * delta

