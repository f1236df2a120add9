"""Canonical-ensemble machinery: partition function, Gibbs state, U and M.

All Boltzmann weights are computed with the ground-energy shift
exp(-beta*(E_i - E_0)), so only log Z is ever formed (beta*|E| can exceed
700 in low-temperature sweeps).  T = 0 means the uniform mixture over the
ground multiplet, the maximum-entropy limit of the Gibbs state; beta is
reported as math.inf there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelSpec
from .spectral import SpectralDecomposition, decompose


@dataclass(frozen=True)
class ThermoPoint:
    """One temperature point: log Z, internal energy U and magnetization M."""

    temperature: float
    beta: float
    log_z: float
    u: float
    u_per_site: float
    m: float
    m_per_site: float


@dataclass(frozen=True)
class GibbsState:
    """Thermal density matrix rho = exp(-H/T) / Z."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def thermal_probabilities(sd: SpectralDecomposition, temperature: float) -> np.ndarray:
    """Eigenstate occupation probabilities at the given temperature (k = 1)."""
    if not temperature >= 0:  # also rejects NaN
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    ev = sd.eigenvalues
    if temperature == 0.0:
        p = np.zeros(ev.size)
        p[: sd.ground_degeneracy] = 1.0 / sd.ground_degeneracy
        return p
    w = np.exp(-(ev - ev[0]) / temperature)
    return w / w.sum()


def _log_z(sd: SpectralDecomposition, temperature: float) -> float:
    e0 = sd.eigenvalues[0]
    if temperature == 0.0:
        if e0 == 0.0:
            return math.log(sd.ground_degeneracy)
        return math.inf if e0 < 0 else -math.inf
    w = np.exp(-(sd.eigenvalues - e0) / temperature)
    return float(-e0 / temperature + math.log(w.sum()))


def _sigma_z_diagonal(n: int) -> np.ndarray:
    """Eigenvalues of sum_i sigma_iz over the computational basis."""
    states = np.arange(1 << n, dtype=np.int64)
    # bitwise_count returns uint8, which would wrap under subtraction
    return (n - 2 * np.bitwise_count(states).astype(np.int64)).astype(float)


def thermo_point(sd: SpectralDecomposition, spec: ModelSpec,
                 temperature: float) -> ThermoPoint:
    """Partition function (as log Z), internal energy and magnetization.

    U is the thermal average of the eigenvalues; M is <sum_i sigma_iz>,
    evaluated from the sector labels when present (exact for S_z-conserving
    models) and from the eigenvectors otherwise.
    """
    p = thermal_probabilities(sd, temperature)
    ev = sd.eigenvalues
    e0 = ev[0]
    u = float(e0 + (ev - e0) @ p)

    if sd.sector_labels is not None:
        m = float((2.0 * sd.sector_labels) @ p)
    elif sd.eigvec_blocks is not None:
        d = _sigma_z_diagonal(spec.n_sites)
        m = float(sum(d[states] @ ((np.abs(v) ** 2) @ p[cols])
                      for states, v, cols in sd.eigvec_blocks))
    else:
        raise ValueError("magnetization needs sector labels or eigenvectors")

    n = spec.n_sites
    return ThermoPoint(
        temperature=float(temperature),
        beta=math.inf if temperature == 0.0 else 1.0 / temperature,
        log_z=_log_z(sd, temperature),
        u=u,
        u_per_site=u / n,
        m=m,
        m_per_site=m / n,
    )


def gibbs_state(sd: SpectralDecomposition, temperature: float) -> GibbsState:
    """Thermal density matrix; at T = 0 the uniform ground-multiplet mixture."""
    if sd.eigvec_blocks is None:
        raise ValueError("Gibbs state needs eigenvectors; rerun with vectors=True")
    p = thermal_probabilities(sd, temperature)
    rho = np.zeros((sd.dim, sd.dim), dtype=complex)
    for states, v, cols in sd.eigvec_blocks:
        rho[np.ix_(states, states)] = (v * p[cols]) @ v.conj().T
    return GibbsState(matrix=rho)


def check_derivatives(spec: ModelSpec, temperature: float,
                      db: float = 1e-4) -> tuple[float, float]:
    """Residuals of U and M against central finite differences of log Z.

    U is checked as -d(log Z)/d(beta) on the same spectrum; M as
    -(1/beta) d(log Z)/dB, re-diagonalizing at B +- db.  Returns the two
    absolute residuals.
    """
    if temperature <= 0:
        raise ValueError("finite-difference check needs temperature > 0")
    sd = decompose(spec)
    tp = thermo_point(sd, spec, temperature)

    beta = 1.0 / temperature
    dbeta = 1e-4 * max(1.0, beta)
    lz_plus = _log_z(sd, 1.0 / (beta + dbeta))
    lz_minus = _log_z(sd, 1.0 / (beta - dbeta))
    u_fd = -(lz_plus - lz_minus) / (2.0 * dbeta)

    def shifted(delta_b: float) -> float:
        shifted_spec = replace(spec, field_b=spec.field_b + delta_b)
        return _log_z(decompose(shifted_spec), temperature)

    m_fd = -(shifted(db) - shifted(-db)) / (2.0 * db * beta)
    return abs(u_fd - tp.u), abs(m_fd - tp.m)
