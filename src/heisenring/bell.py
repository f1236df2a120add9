"""CHSH expectation values and the Horodecki maximal-violation measure.

For a two-qubit state with correlation matrix T[n, m] = tr(rho sigma_n x
sigma_m), the maximum of |<CHSH>| over all measurement frames is
2 sqrt(u + u~) with u >= u~ the two largest eigenvalues of T T^t.  Values
above 2 certify entanglement (witness direction only); 2 sqrt(2) is the
quantum ceiling.

Every function here reads the state only through its 3x3 tensor T, the
`g` of twoqubit.CorrelationSet, so a caller computes T once per state and
passes it on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import clamp_concurrence

TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BellResult:
    """Top two eigenvalues of T T^t and the measure 2 sqrt(u + u~)."""

    top_two: tuple[float, float]
    measure: float
    violates: bool


def chsh_expectation(t: np.ndarray, frame: MeasurementFrame) -> float:
    """Signed CHSH expectation a.T(b + b') + a'.T(b - b') for one frame."""
    return float(frame.a @ (t @ (frame.b + frame.b_prime))
                 + frame.a_prime @ (t @ (frame.b - frame.b_prime)))


def violation_measure(t: np.ndarray) -> BellResult:
    """Maximal |<CHSH>| over all frames, from the spectrum of T T^t."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"expected a 3x3 correlation matrix, got {t.shape}")
    evals = np.clip(np.linalg.eigvalsh(t @ t.T), 0.0, None)  # PSD up to roundoff
    u, u_tilde = float(evals[2]), float(evals[1])
    measure = 2.0 * math.sqrt(u + u_tilde)
    return BellResult(top_two=(u, u_tilde), measure=measure, violates=measure > 2.0)


def violation_xxx(u: float, j: float, n: int) -> float:
    """Isotropic-ring closed form 2 sqrt(2) |U/(3 j N)|, by exchange-sign branch."""
    if j == 0.0:
        raise ValueError("isotropic closed form needs j != 0")
    value = -TSIRELSON * u / (3.0 * j * n) if j > 0 else TSIRELSON * u / (3.0 * j * n)
    if value < -1e-10:
        raise ValueError(
            f"closed form gave {value:.3e} < 0; thermal internal energy must be <= 0"
        )
    return max(0.0, value)


def concurrence_vs_violation(measure: float, regime: str) -> float:
    """Concurrence implied by the violation measure on isotropic rings.

    AFM: C = max(0, 3 measure / (2 sqrt 2) - 1) / 2;
    FM:  C = max(0,   measure / (2 sqrt 2) - 1) / 2 (always 0 below the ceiling).
    """
    if not 0.0 <= measure <= TSIRELSON + 1e-10:
        raise ValueError(f"measure {measure!r} outside [0, 2*sqrt(2)]")
    reg = regime.lower()
    if reg == "afm":
        return clamp_concurrence(0.5 * max(0.0, 3.0 * measure / TSIRELSON - 1.0))
    if reg == "fm":
        return clamp_concurrence(0.5 * max(0.0, measure / TSIRELSON - 1.0))
    raise ValueError(f"regime must be 'afm' or 'fm', got {regime!r}")


def random_frames(count: int, seed: int) -> np.ndarray:
    """(count, 4, 3) array of frames, directions uniform on the sphere.

    Deterministic in `seed`; every frame derives from the one master stream,
    so a given (count, seed) pair always produces the same frames no matter
    how they are later evaluated or parallelized.
    """
    rng = np.random.default_rng(seed)
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
    consistency probe, not as the maximizer (violation_measure is exact).
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
