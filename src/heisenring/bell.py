"""CHSH expectation values and the Horodecki maximal-violation measure.

For a two-qubit state with correlation matrix T[n, m] = tr(rho sigma_n x
sigma_m), the maximum of |<CHSH>| over all measurement frames is
2 sqrt(u + u~) with u >= u~ the two largest eigenvalues of T T^t.  Values
above 2 certify entanglement (witness direction only); 2 sqrt(2) is the
quantum ceiling.

Every function here reads the state only through its 3x3 tensor T, the
`g` of twoqubit.CorrelationSet, so a caller computes T once per state and
passes it on.  violation_measure takes the (R, 3, 3) tensors of R states
and runs one stacked eigvalsh over them; violation_xxx and
concurrence_vs_violation take (R,) arrays.  One state is a stack of one.
The frame tools that check the measure against explicit measurement
frames (MeasurementFrame, chsh_expectation, random_frames,
frame_expectations, random_frame_search and optimal_frame) are reference
routes and live in heisenring.oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import _route_stack, clamp_concurrence

TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class BellResult:
    """Top two eigenvalues of T T^t and the measure 2 sqrt(u + u~), as (R,) arrays."""

    top_two: tuple[np.ndarray, np.ndarray]
    measure: np.ndarray
    violates: np.ndarray


def violation_measure(t: np.ndarray) -> BellResult:
    """Maximal |<CHSH>| over all frames of each (3, 3) tensor of the (R, 3, 3) `t`,
    from the spectrum of T T^t."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3 or t.shape[1:] != (3, 3):
        raise ValueError(f"expected an (R, 3, 3) stack of correlation tensors, got shape {t.shape}")
    evals = np.maximum(np.linalg.eigvalsh(t @ t.swapaxes(-1, -2)), 0.0)  # PSD up to roundoff
    u, u_tilde = evals[:, 2], evals[:, 1]
    measure = 2.0 * np.sqrt(u + u_tilde)
    return BellResult(top_two=(u, u_tilde), measure=measure, violates=measure > 2.0)


def violation_xxx(u: np.ndarray, j: float, n: int) -> np.ndarray:
    """Isotropic-ring closed form 2 sqrt(2) |U/(3 j N)| of the (R,) energies U,
    by exchange-sign branch."""
    u = _route_stack(u, j, "isotropic closed form", "u")
    value = -TSIRELSON * u / (3.0 * j * n) if j > 0 else TSIRELSON * u / (3.0 * j * n)
    if np.any(value < -1e-10):
        raise ValueError(
            f"closed form gave {np.min(value):.3e} < 0; thermal internal energy must be <= 0"
        )
    return np.maximum(0.0, value)


def concurrence_vs_violation(measure: np.ndarray, j: float) -> np.ndarray:
    """Concurrence implied by the (R,) violation measures of an isotropic ring.

    AFM (j > 0): C = max(0, 3 measure / (2 sqrt 2) - 1) / 2;
    FM  (j < 0): C = max(0,   measure / (2 sqrt 2) - 1) / 2 (always 0 below the ceiling).
    """
    measure = _route_stack(measure, j, "isotropic closed form", "measure")
    outside = ~((0.0 <= measure) & (measure <= TSIRELSON + 1e-10))  # also catches NaN
    if outside.any():
        raise ValueError(f"measure {float(measure[outside][0])!r} outside [0, 2*sqrt(2)]")
    ratio = 3.0 * measure / TSIRELSON if j > 0 else measure / TSIRELSON
    return clamp_concurrence(0.5 * np.maximum(0.0, ratio - 1.0))

