"""Wootters concurrence and the closed-form routes that must agree with it.

Every route other than the Wootters procedure is a shortcut that only holds
under stated symmetry preconditions; the library's central correctness
instrument is that each shortcut matches the Wootters value wherever its
precondition holds.  All routes clamp |C| <= 1e-12 to exactly 0 (so
"entangled or not" is a crisp predicate) and cap at 1, logging if the cap
ever fires.

Every function takes a stack of R states (a TwoQubitRDM and a
CorrelationSet of R states, (R,) arrays for u_bar and G_zz) and returns
(R,) arrays; one state is a stack of one.  Wootters runs as one stacked
eigh and one stacked svd, and the closed forms, the clamp and the spread
are array expressions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import PAIR_PAULI, ModelSpec
from .twoqubit import CorrelationSet, TwoQubitRDM

logger = logging.getLogger(__name__)

CLAMP_TOL = 1e-12
X_FORM_TOL = 1e-8


def clamp_concurrence(c: np.ndarray) -> np.ndarray:
    """Snap near-zero values to 0 and cap at 1 (logged when the cap fires), elementwise."""
    c = np.asarray(c, dtype=float)
    for value in c[c > 1.0]:
        logger.info("concurrence %.17g capped to 1", value)
    return np.where(np.abs(c) <= CLAMP_TOL, 0.0, np.minimum(c, 1.0))


def _route_stack(values, j: float, route: str, name: str) -> np.ndarray:
    """`values` as an (R,) float array, for a closed form that divides by j."""
    if j == 0.0:
        raise ValueError(f"{route} needs j != 0")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be an (R,) array, got shape {values.shape}")
    return values


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| by hypot, as Python's abs(complex) computes it; numpy's complex
    absolute value differs from it in the last bit."""
    return np.hypot(np.real(z), np.imag(z))


@dataclass(frozen=True, eq=False)
class ConcurrenceResult:
    """Concurrence of R states by every applicable route, with their worst disagreement.

    Every field is an (R,) array (lambdas (R, 4)), NaN where a route is absent.
    """

    wootters: np.ndarray
    lambdas: np.ndarray
    x_form: np.ndarray
    correlation_form: np.ndarray
    energy_form: np.ndarray
    max_disagreement: np.ndarray


def concurrence_wootters(rdm: TwoQubitRDM) -> ConcurrenceResult:
    """Concurrence from the spin-flipped product rho (sy x sy) rho* (sy x sy).

    lambda_1..4 are the descending square roots of that operator's
    eigenvalues; C = max(l1 - l2 - l3 - l4, 0).  They are evaluated as the
    singular values of sqrt(rho~) sqrt(rho) (the same numbers, since the
    product is similar to M^dagger M), which avoids the accuracy loss of
    square-rooting near-zero eigenvalues of the non-Hermitian product.
    Eigenvalues of rho in [-1e-10, 0) are clipped to zero; anything lower
    means the input was not a density matrix and raises.  Only the Wootters
    route is filled: the others are NaN, and the spread 0.
    """
    evals, vecs = np.linalg.eigh(rdm.matrix)
    lowest = evals.min(initial=0.0)
    if lowest < -1e-10:
        raise ValueError(
            f"density matrix has eigenvalue {lowest:.3e} < -1e-10; "
            "input is not a valid density matrix"
        )
    sqrt_rho = ((vecs * np.sqrt(np.maximum(evals, 0.0))[:, None, :])
                @ vecs.conj().swapaxes(-1, -2))
    sqrt_flipped = PAIR_PAULI["y"] @ sqrt_rho.conj() @ PAIR_PAULI["y"]
    lambdas = np.linalg.svd(sqrt_flipped @ sqrt_rho, compute_uv=False)
    c = clamp_concurrence(np.maximum(
        0.0, lambdas[:, 0] - lambdas[:, 1] - lambdas[:, 2] - lambdas[:, 3]))
    return ConcurrenceResult(c, lambdas, *np.full((3,) + c.shape, np.nan), np.zeros(c.shape))


def concurrence_x_form(rdm: TwoQubitRDM) -> np.ndarray:
    """C = 2 max(0, |z| - sqrt(u+ u-)) for the S_z-conserving sparsity pattern."""
    worst = rdm.off_structure_norm.max(initial=0.0)
    if worst > X_FORM_TOL:
        raise ValueError(
            f"off-pattern entries reach {worst:.3e}; "
            "the X-form shortcut does not apply"
        )
    u_prod = np.maximum(rdm.u_plus, 0.0) * np.maximum(rdm.u_minus, 0.0)
    return clamp_concurrence(2.0 * np.maximum(0.0, _modulus(rdm.z) - np.sqrt(u_prod)))


def concurrence_from_correlations(cs: CorrelationSet) -> np.ndarray:
    """C = max(0, |G_xx + G_yy| - G_zz - 1) / 2, valid for zero magnetization."""
    worst = np.abs(cs.m_per_site).max(initial=0.0)
    if worst > 1e-8:
        raise ValueError(
            f"correlation route needs vanishing magnetization, |M/N| = {worst:.3e}"
        )
    g = cs.g
    return clamp_concurrence(
        0.5 * np.maximum(0.0, np.abs(g[:, 0, 0] + g[:, 1, 1]) - g[:, 2, 2] - 1.0))


def concurrence_xxx_energy(u_bar: np.ndarray, j: float) -> np.ndarray:
    """Isotropic-ring concurrence straight from the internal energy per site.

    Antiferromagnetic (j > 0): C = max(0, -ubar/j - 1) / 2;
    ferromagnetic  (j < 0):    C = max(0,  ubar/(3j) - 1) / 2.
    The sign-unified form C = max(0, 2|ubar/j| - ubar/j - 3) / 6 is evaluated
    alongside and must agree.
    """
    r = _route_stack(u_bar, j, "isotropic energy route", "u_bar") / j
    if j > 0:
        branch = 0.5 * np.maximum(0.0, -r - 1.0)
    else:
        branch = 0.5 * np.maximum(0.0, r / 3.0 - 1.0)
    unified = (1.0 / 6.0) * np.maximum(0.0, 2.0 * np.abs(r) - r - 3.0)
    gap = np.abs(branch - unified)
    if (gap > 1e-12).any():
        k = np.argmax(gap)
        raise ValueError(
            f"sign-branch ({branch[k]:.17g}) and unified "
            f"({unified[k]:.17g}) forms disagree; "
            "input is outside the thermal domain (u_bar must be <= 0)"
        )
    return clamp_concurrence(branch)


def concurrence_anisotropic(u_bar: np.ndarray, j: float, delta: float,
                            g_zz: np.ndarray) -> np.ndarray:
    """Zero-field anisotropic route: C = max(0, |ubar/j - delta*G_zz| - G_zz - 1)/2.

    delta = 0 gives the XY special case max(0, |ubar/j| - G_zz - 1)/2 and
    delta = 1 collapses to the correlation route.
    """
    r = _route_stack(u_bar, j, "anisotropic energy route", "u_bar") / j
    return clamp_concurrence(0.5 * np.maximum(0.0, np.abs(r - delta * g_zz) - g_zz - 1.0))


def concurrence_xxx_field(rdm: TwoQubitRDM, u_bar: np.ndarray, j: float,
                          b: float) -> np.ndarray:
    """Isotropic route with a magnetic field, where u+ != u-.

    C = 2 max{0, |z| - [(ubar/j - 4 Re z + 1 - (b/j) Mbar)^2 - 4 Mbar^2]^(1/2) / 4}
    with Mbar = u+ - u-.  The field enters in units of j, which is the
    reading that keeps the identity ubar/j = G_xx+G_yy+G_zz + (b/j)*Mbar
    dimensionally consistent (the square-root argument is then 16 u+ u-).
    """
    u_bar = _route_stack(u_bar, j, "field energy route", "u_bar")
    m_bar = rdm.m_bar
    # float_power squares through the C library's pow; ** on an array
    # multiplies x*x, which rounds differently
    arg = (np.float_power(u_bar / j - 4.0 * np.real(rdm.z) + 1.0 - (b / j) * m_bar, 2)
           - 4.0 * np.float_power(m_bar, 2))
    # the bracket's terms grow like b/j, and the rounding of its square with
    # them: a true 16 u+ u- >= 0 may read that far below 0
    terms = np.abs(u_bar / j) + 4.0 * np.abs(np.real(rdm.z)) + 1.0 + np.abs((b / j) * m_bar)
    floor = 1e-10 + 64.0 * np.finfo(float).eps * terms * terms
    margin = arg + floor
    if (margin < 0.0).any():
        worst = np.argmin(margin)
        raise ValueError(
            f"square-root argument {arg[worst]:.3e} < -{floor[worst]:.3e} "
            "signals a convention mismatch"
        )
    return clamp_concurrence(
        2.0 * np.maximum(0.0, _modulus(rdm.z) - 0.25 * np.sqrt(np.maximum(arg, 0.0))))


def _on_rows(out, applies, route, state):
    """Fill out[applies] with route(state) on the rows where `applies` holds."""
    if applies.all():
        out[:] = route(state)
    elif applies.any():
        out[applies] = route(state.rows(applies))


def concurrence_report(rdm: TwoQubitRDM, cs: CorrelationSet, spec: ModelSpec,
                       u_bar: np.ndarray) -> ConcurrenceResult:
    """All routes whose preconditions hold for this spec, plus their spread.

    energy_form is the closed form matching the regime: isotropic, zero-field
    anisotropic, or isotropic-with-field; the regime is decided once per
    spec.  The closed forms hold for a nearest-neighbour pair, so
    energy_form is present only when rdm.sites is a bond of the ring.
    Routes whose preconditions fail are left NaN, never zero-filled.
    """
    base = concurrence_wootters(rdm)
    # Wootters, the X form, the correlation route and the energy route
    routes = np.full((4, base.wootters.size), np.nan)
    routes[0] = base.wootters
    fits_x = rdm.off_structure_norm <= X_FORM_TOL
    _on_rows(routes[1], fits_x, concurrence_x_form, rdm)
    # the correlation route needs the global spin-flip symmetry (not just an
    # accidentally small magnetization, whose error is O(M/N)) and the X
    # pattern: corner-coupled states entangle through a channel G cannot see
    _on_rows(routes[2], fits_x & (spec.field_b == 0.0), concurrence_from_correlations, cs)

    if spec.is_uniform and spec.coupling.j != 0.0 and spec.is_bond(*rdm.sites):
        j, delta, b = spec.coupling.j, spec.coupling.delta, spec.field_b
        if delta == 1.0 and b == 0.0:
            routes[3] = concurrence_xxx_energy(u_bar, j)
        elif b == 0.0:
            routes[3] = concurrence_anisotropic(u_bar, j, delta, cs.g[:, 2, 2])
        elif delta == 1.0:
            routes[3] = concurrence_xxx_field(rdm, u_bar, j, b)

    # fmax and fmin skip the NaN of an absent route
    return ConcurrenceResult(base.wootters, base.lambdas, *routes[1:],
                             max_disagreement=np.fmax.reduce(routes) - np.fmin.reduce(routes))
