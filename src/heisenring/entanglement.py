"""Wootters concurrence and the closed-form routes that must agree with it.

Every route other than the Wootters procedure is a shortcut that only holds
under stated symmetry preconditions; the library's central correctness
instrument is that each shortcut matches the Wootters value wherever its
precondition holds.  All routes clamp |C| <= 1e-12 to exactly 0 (so
"entangled or not" is a crisp predicate) and cap at 1, logging if the cap
ever fires.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .model import PAIR_PAULI, ModelSpec
from .spectral import SpectralDecomposition
from .twoqubit import CorrelationSet, TwoQubitRDM

logger = logging.getLogger(__name__)

CLAMP_TOL = 1e-12
X_FORM_TOL = 1e-8


def clamp_concurrence(c: float) -> float:
    """Snap near-zero values to 0 and cap at 1 (logged when the cap fires)."""
    if abs(c) <= CLAMP_TOL:
        return 0.0
    if c > 1.0:
        logger.info("concurrence %.17g capped to 1", c)
        return 1.0
    return float(c)


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence by every applicable route, with their worst disagreement."""

    wootters: float
    lambdas: np.ndarray
    x_form: float | None = None
    correlation_form: float | None = None
    energy_form: float | None = None
    max_disagreement: float = 0.0

    def routes(self) -> dict[str, float]:
        out = {"wootters": self.wootters}
        for name in ("x_form", "correlation_form", "energy_form"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def concurrence_wootters(rdm: TwoQubitRDM) -> ConcurrenceResult:
    """Concurrence from the spin-flipped product rho (sy x sy) rho* (sy x sy).

    lambda_1..4 are the descending square roots of that operator's
    eigenvalues; C = max(l1 - l2 - l3 - l4, 0).  They are evaluated as the
    singular values of sqrt(rho~) sqrt(rho) (the same numbers, since the
    product is similar to M^dagger M), which avoids the accuracy loss of
    square-rooting near-zero eigenvalues of the non-Hermitian product.
    Eigenvalues of rho in [-1e-10, 0) are clipped to zero; anything lower
    means the input was not a density matrix and raises.
    """
    rho = rdm.matrix
    evals, vecs = np.linalg.eigh(rho)
    if evals.min() < -1e-10:
        raise ValueError(
            f"density matrix has eigenvalue {evals.min():.3e} < -1e-10; "
            "input is not a valid density matrix"
        )
    sqrt_rho = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    sqrt_flipped = PAIR_PAULI["y"] @ sqrt_rho.conj() @ PAIR_PAULI["y"]
    lambdas = np.linalg.svd(sqrt_flipped @ sqrt_rho, compute_uv=False)
    c = clamp_concurrence(max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]))
    return ConcurrenceResult(wootters=c, lambdas=lambdas)


def concurrence_x_form(rdm: TwoQubitRDM) -> float:
    """C = 2 max(0, |z| - sqrt(u+ u-)) for the S_z-conserving sparsity pattern."""
    if rdm.off_structure_norm > X_FORM_TOL:
        raise ValueError(
            f"off-pattern entries reach {rdm.off_structure_norm:.3e}; "
            "the X-form shortcut does not apply"
        )
    u_prod = max(rdm.u_plus, 0.0) * max(rdm.u_minus, 0.0)
    return clamp_concurrence(2.0 * max(0.0, abs(rdm.z) - math.sqrt(u_prod)))


def concurrence_from_correlations(cs: CorrelationSet) -> float:
    """C = max(0, |G_xx + G_yy| - G_zz - 1) / 2, valid for zero magnetization."""
    if abs(cs.m_per_site) > 1e-8:
        raise ValueError(
            f"correlation route needs vanishing magnetization, |M/N| = {abs(cs.m_per_site):.3e}"
        )
    g = cs.g
    return clamp_concurrence(0.5 * max(0.0, abs(g[0, 0] + g[1, 1]) - g[2, 2] - 1.0))


def concurrence_xxx_energy(u_bar: float, j: float) -> float:
    """Isotropic-ring concurrence straight from the internal energy per site.

    Antiferromagnetic (j > 0): C = max(0, -ubar/j - 1) / 2;
    ferromagnetic  (j < 0):    C = max(0,  ubar/(3j) - 1) / 2.
    The sign-unified form C = max(0, 2|ubar/j| - ubar/j - 3) / 6 is evaluated
    alongside and must agree.
    """
    if j == 0.0:
        raise ValueError("isotropic energy route needs j != 0")
    r = u_bar / j
    branch = 0.5 * max(0.0, -r - 1.0) if j > 0 else 0.5 * max(0.0, r / 3.0 - 1.0)
    unified = (1.0 / 6.0) * max(0.0, 2.0 * abs(r) - r - 3.0)
    if abs(branch - unified) > 1e-12:
        raise ValueError(
            f"sign-branch ({branch:.17g}) and unified ({unified:.17g}) forms disagree; "
            "input is outside the thermal domain (u_bar must be <= 0)"
        )
    return clamp_concurrence(branch)


def concurrence_ground_state(sd: SpectralDecomposition, j: float, n: int) -> float:
    """Nearest-neighbour concurrence from the ground energy, C = max(0, -E0/(jN) - 1)/2.

    Valid for antiferromagnetic (j > 0) even-N rings, where the ground state
    is unique and the T -> 0 thermal limit lands on it.
    """
    if j <= 0.0:
        raise ValueError("ground-state energy route needs antiferromagnetic j > 0")
    if n % 2 != 0:
        raise ValueError(f"ground-state energy route needs even n, got {n}")
    if sd.dim != 1 << n:
        raise ValueError(f"decomposition dimension {sd.dim} does not match n={n}")
    return clamp_concurrence(0.5 * max(0.0, -sd.ground_energy / (j * n) - 1.0))


def concurrence_anisotropic(u_bar: float, j: float, delta: float, g_zz: float) -> float:
    """Zero-field anisotropic route: C = max(0, |ubar/j - delta*G_zz| - G_zz - 1)/2.

    delta = 0 gives the XY special case max(0, |ubar/j| - G_zz - 1)/2 and
    delta = 1 collapses to the correlation route.
    """
    if j == 0.0:
        raise ValueError("anisotropic energy route needs j != 0")
    r = u_bar / j
    return clamp_concurrence(0.5 * max(0.0, abs(r - delta * g_zz) - g_zz - 1.0))


def concurrence_xxx_field(rdm: TwoQubitRDM, u_bar: float, j: float, b: float) -> float:
    """Isotropic route with a magnetic field, where u+ != u-.

    C = 2 max{0, |z| - [(ubar/j - 4 Re z + 1 - (b/j) Mbar)^2 - 4 Mbar^2]^(1/2) / 4}
    with Mbar = u+ - u-.  The field enters in units of j, which is the
    reading that keeps the identity ubar/j = G_xx+G_yy+G_zz + (b/j)*Mbar
    dimensionally consistent (the square-root argument is then 16 u+ u-).
    """
    if j == 0.0:
        raise ValueError("field energy route needs j != 0")
    m_bar = rdm.m_bar
    arg = (u_bar / j - 4.0 * rdm.z.real + 1.0 - (b / j) * m_bar) ** 2 - 4.0 * m_bar ** 2
    if arg < -1e-10:
        raise ValueError(
            f"square-root argument {arg:.3e} < -1e-10 signals a convention mismatch"
        )
    return clamp_concurrence(2.0 * max(0.0, abs(rdm.z) - 0.25 * math.sqrt(max(arg, 0.0))))


def concurrence_report(rdm: TwoQubitRDM, cs: CorrelationSet, spec: ModelSpec,
                       u_bar: float) -> ConcurrenceResult:
    """All routes whose preconditions hold for this spec, plus their spread.

    energy_form is the closed form matching the regime: isotropic, zero-field
    anisotropic, or isotropic-with-field.  Routes whose preconditions fail
    are left absent, never zero-filled.
    """
    base = concurrence_wootters(rdm)
    x_form = None
    if rdm.off_structure_norm <= X_FORM_TOL:
        x_form = concurrence_x_form(rdm)

    correlation_form = None
    if spec.field_b == 0.0 and rdm.off_structure_norm <= X_FORM_TOL:
        # needs the global spin-flip symmetry (not just an accidentally
        # small magnetization, whose error is O(M/N)) and the X pattern:
        # corner-coupled states entangle through a channel G cannot see
        correlation_form = concurrence_from_correlations(cs)

    energy_form = None
    if spec.is_uniform and spec.coupling.j != 0.0:
        j, delta, b = spec.coupling.j, spec.coupling.delta, spec.field_b
        if delta == 1.0 and b == 0.0:
            energy_form = concurrence_xxx_energy(u_bar, j)
        elif b == 0.0:
            energy_form = concurrence_anisotropic(u_bar, j, delta, cs.g[2, 2])
        elif delta == 1.0:
            energy_form = concurrence_xxx_field(rdm, u_bar, j, b)

    values = [v for v in (base.wootters, x_form, correlation_form, energy_form)
              if v is not None]
    spread = max(values) - min(values) if len(values) > 1 else 0.0
    return ConcurrenceResult(
        wootters=base.wootters,
        lambdas=base.lambdas,
        x_form=x_form,
        correlation_form=correlation_form,
        energy_form=energy_form,
        max_disagreement=float(spread),
    )
