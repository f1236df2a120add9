"""Spin-1/2 ring Hamiltonians and their symmetry operators.

Basis convention
----------------
A computational-basis index ``b`` in ``[0, 2**n)`` is read as the bit string
``m_1 m_2 ... m_n`` with ``m_1`` the *most significant* bit.  ``m_i = 0``
means spin up at site ``i`` (sigma_z eigenvalue +1), ``m_i = 1`` spin down.
Sites are 1-based throughout the public API, so site ``i`` lives at bit
position ``n - i`` counted from the least significant bit.

Hamiltonian
-----------
Uniform mode builds the periodic nearest-neighbour ring

    H = J * sum_{i=1..N} [ sigma_i . sigma_{i+1}
                           + (delta - 1) * sigma_iz sigma_{i+1,z} ]
        + B * sum_{i=1..N} sigma_iz,        N+1 == 1.

For N = 2 the periodic sum visits the single bond twice, so the two-site
Hamiltonian carries a factor 2 relative to an open pair.  This is kept on
purpose: it is what makes the two-site spectrum come out as {-6J, 2J x3}
and the partition function as 3*exp(-2*beta*J) + exp(6*beta*J).  Many other
codebases de-duplicate this bond; results differ by a factor 2 in J.

General mode builds  H = sum_{i != j} sum_a J^a_{ij} sigma_ia sigma_ja + B * sum_i sigma_iz
from three symmetric coupling matrices (the ordered double sum counts every
unordered pair twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

DEFAULT_SITE_CAP = 14

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


@dataclass(frozen=True)
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
        Number of spins N, 2 <= N <= site_cap.
    coupling : UniformCoupling or GeneralCoupling
        Uniform (J, delta) ring bonds or arbitrary pair couplings.
    field_b : float
        Magnetic field B coupling to sum_i sigma_iz.
    site_cap : int
        Hard upper limit on N (memory guard), default 14.
    """

    n_sites: int
    coupling: UniformCoupling | GeneralCoupling
    field_b: float = 0.0
    site_cap: int = field(default=DEFAULT_SITE_CAP, repr=False)

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        if self.n_sites > self.site_cap:
            raise ValueError(
                f"n_sites={self.n_sites} exceeds the configured cap of {self.site_cap}"
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

    @classmethod
    def uniform(cls, n_sites: int, j: float, delta: float = 1.0,
                field_b: float = 0.0, site_cap: int = DEFAULT_SITE_CAP) -> "ModelSpec":
        return cls(n_sites, UniformCoupling(float(j), float(delta)),
                   float(field_b), site_cap)

    @classmethod
    def general(cls, jx, jy, jz, field_b: float = 0.0,
                site_cap: int = DEFAULT_SITE_CAP) -> "ModelSpec":
        jx = np.asarray(jx, dtype=float)
        return cls(jx.shape[0], GeneralCoupling(jx, np.asarray(jy, dtype=float),
                                                np.asarray(jz, dtype=float)),
                   float(field_b), site_cap)

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    @property
    def is_uniform(self) -> bool:
        return isinstance(self.coupling, UniformCoupling)

    @property
    def is_xxx(self) -> bool:
        return self.is_uniform and self.coupling.delta == 1.0

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


def bit_for_site(site: int, n: int) -> int:
    """Bit position (from LSB) of a 1-based site index."""
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range 1..{n}")
    return n - site


def embed(op: np.ndarray, sites: tuple[int, ...], n: int) -> np.ndarray:
    """Operator `op` on `sites` of an n-site register, identity elsewhere.

    The tensor factors of `op` act on `sites` in the order given, so
    embed(kron(a, b), (3, 1), n) puts a on site 3 and b on site 1.  One kron
    with the identity on the other sites, then one transpose of the
    (2,) * 2n view moves every factor to its site.
    """
    k = len(sites)
    for s in sites:
        bit_for_site(s, n)
    if len(set(sites)) != k:
        raise ValueError(f"sites must be distinct, got {sites}")
    factor_sites = sites + tuple(s for s in range(1, n + 1) if s not in sites)
    axes = np.argsort(factor_sites)
    full = np.kron(op, np.eye(1 << (n - k))).reshape((2,) * (2 * n))
    return full.transpose(*axes, *(axes + n)).reshape(1 << n, 1 << n)


def pauli_at(site: int, axis: str, n: int) -> np.ndarray:
    """Pauli matrix sigma_axis acting on `site` of an n-site register.

    Hermitian, traceless, squares to the identity; site 1 is the leftmost
    tensor factor (most significant bit).
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return embed(PAULI[axis], (site,), n)


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Dense complex Hamiltonian matrix of the ring described by `spec`.

    Uniform mode evaluates the periodic sum literally, one embedded 4x4
    bond term per bond (so the N=2 bond is counted twice, see module
    docstring).  General mode runs the ordered double sum over site pairs,
    one embedded sigma_a x sigma_a per nonzero coupling.  Memory is
    O(4**n); for n >= 13 prefer the sector-blocked eigensolver which never
    forms this matrix.
    """
    n = spec.n_sites
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    if spec.is_uniform:
        j, delta = spec.coupling.j, spec.coupling.delta
        term = j * PAIR_PAULI["x"] + j * PAIR_PAULI["y"] + j * delta * PAIR_PAULI["z"]
        for bond in spec.bonds():
            h += embed(term, bond, n)
    else:
        mats = {"x": spec.coupling.jx, "y": spec.coupling.jy, "z": spec.coupling.jz}
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                if i == k:
                    continue
                for ax in AXES:
                    c = mats[ax][i - 1, k - 1]
                    if c != 0.0:
                        h += c * embed(PAIR_PAULI[ax], (i, k), n)
    if spec.field_b != 0.0:
        for i in range(1, n + 1):
            h += spec.field_b * embed(SIGMA_Z, (i,), n)
    return h


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


def total_spin(axis: str, n: int) -> np.ndarray:
    """Collective spin component S_axis = sum_i sigma_i,axis / 2."""
    s = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(1, n + 1):
        s += pauli_at(i, axis, n)
    return 0.5 * s


def global_flip(axis: str, n: int) -> np.ndarray:
    """Q_axis = sigma_axis tensored over all n sites (Z_2 generator)."""
    return reduce(np.kron, [PAULI[axis]] * n)


def shift_operator(n: int) -> np.ndarray:
    """Cyclic right shift T: |m_1 ... m_N> -> |m_N m_1 ... m_{N-1}>."""
    dim = 1 << n
    t = np.zeros((dim, dim), dtype=complex)
    src = np.arange(dim)
    dst = (src >> 1) | ((src & 1) << (n - 1))
    t[dst, src] = 1.0
    return t


def commutator_max(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry modulus of the commutator [a, b]."""
    return float(np.max(np.abs(a @ b - b @ a)))


def symmetry_report(spec: ModelSpec) -> list[tuple[str, float]]:
    """Scale-normalized commutator norms of H with S_z, S_x, S_y, Q_x and the shift.

    Each norm is max|[H, A]| divided by max|H| (or the raw value if H = 0).
    The caller decides which entries must vanish for which model.
    """
    n = spec.n_sites
    h = build_hamiltonian(spec)
    scale = float(np.max(np.abs(h)))
    if scale == 0.0:
        scale = 1.0
    ops = [
        ("S_z", total_spin("z", n)),
        ("S_x", total_spin("x", n)),
        ("S_y", total_spin("y", n)),
        ("Q_x", global_flip("x", n)),
        ("T_shift", shift_operator(n)),
    ]
    return [(name, commutator_max(h, op) / scale) for name, op in ops]


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    """Max-entry Hermiticity test, scale-normalized."""
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - a.conj().T))) <= tol * scale
