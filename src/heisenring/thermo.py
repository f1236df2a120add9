"""Canonical ensemble: partition function, occupation probabilities, U and M.

All Boltzmann weights are computed with the ground-energy shift
exp(-beta*(E_i - E_0)), so only log Z is ever formed (beta*|E| can exceed
700 in low-temperature sweeps).  T = 0 means the uniform mixture over the
ground multiplet, the maximum-entropy limit of the Gibbs state; beta is
reported as math.inf there.  At T > 0 the whole ground multiplet (the
ground_degeneracy lowest eigenvalues) has weight exactly 1, so the limit
T -> 0 reaches that mixture however small T is.

A grid of R temperatures is handled at once: thermo_grid builds one
(R, dim) weight matrix and takes the probabilities, log Z, U and M of every
temperature from it.  thermal_probabilities and thermo_point are its
one-temperature case.  U and M are reduced one temperature at a time, as
1-D dot products over a row of probabilities: a stacked matrix product
sums in another order and moves them in the last bits.

The full Gibbs matrix is never formed here: oracle.gibbs_state builds it
from the eigenvectors as a reference for the pair-RDM route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelSpec
from .spectral import SpectralDecomposition, decompose

# field step of the central difference in check_derivatives
FIELD_STEP = 1e-4
# anisotropy step of the central difference in zz_from_log_z
DELTA_STEP = 1e-4


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
class ThermoGrid:
    """Thermal quantities at R temperatures: probabilities (R, dim), the rest (R,)."""

    temperature: np.ndarray
    probabilities: np.ndarray
    log_z: np.ndarray
    u: np.ndarray
    m: np.ndarray


def _weights(sd: SpectralDecomposition,
             temperatures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Occupation probabilities (R, dim) and log Z (R,) at R temperatures (k = 1).

    Each row is exp(-(E_i - E_0)/T) normalised, with weight exactly 1 on the
    ground_degeneracy lowest eigenvalues: they are one level, and their
    rounding-level splittings divided by a tiny T must not split it.  At
    T = 0 the same rule gives the uniform mixture over that level.
    """
    t = np.asarray(temperatures, dtype=float)
    if not (t >= 0).all():  # also catches NaN
        raise ValueError(f"temperature must be >= 0, got {t[~(t >= 0)][0]}")
    ev, g = sd.eigenvalues, sd.ground_degeneracy
    e0 = ev[0]
    # a T = 0 row divides by zero: -inf (weight 0) above the ground level
    # and nan on it, where the weight of 1 overwrites it
    with np.errstate(divide="ignore", invalid="ignore"):
        p = -(ev - e0) / t[:, None]
    np.exp(p, out=p)
    p[:, :g] = 1.0
    sums = p.sum(axis=1)
    p /= sums[:, None]
    if e0 == 0.0:
        log_z0 = math.log(g)
    else:
        log_z0 = math.inf if e0 < 0 else -math.inf
    log_z = np.array([-e0 / ti + math.log(s) if ti > 0 else log_z0
                      for ti, s in zip(t, sums)])
    return p, log_z


def thermal_probabilities(sd: SpectralDecomposition, temperature: float) -> np.ndarray:
    """Eigenstate occupation probabilities at the given temperature (k = 1)."""
    return _weights(sd, [temperature])[0][0]


def _log_z(sd: SpectralDecomposition, temperature: float) -> float:
    return float(_weights(sd, [temperature])[1][0])


def thermo_grid(sd: SpectralDecomposition, spec: ModelSpec,
                temperatures: np.ndarray) -> ThermoGrid:
    """Probabilities, log Z, internal energy and magnetization at each temperature.

    U is the thermal average of the eigenvalues; M is <sum_i sigma_iz>,
    evaluated from the sector labels when present (exact for S_z-conserving
    models) and from the eigenvectors otherwise.
    """
    t = np.asarray(temperatures, dtype=float)
    p, log_z = _weights(sd, t)
    ev = sd.eigenvalues
    e0 = ev[0]
    de = ev - e0
    u = np.array([e0 + de @ row for row in p])

    if sd.sector_labels is not None:
        spin = 2.0 * sd.sector_labels
        m = np.array([spin @ row for row in p])
    elif sd.eigvec_blocks is not None:
        # sum_i sigma_iz on each block state; bitwise_count returns uint8,
        # which would wrap under subtraction
        n = spec.n_sites
        blocks = [((n - 2 * np.bitwise_count(states).astype(np.int64)).astype(float),
                   np.abs(v) ** 2, cols) for states, v, cols in sd.eigvec_blocks]
        m = np.array([sum(ds @ (weight @ row[cols]) for ds, weight, cols in blocks)
                      for row in p])
    else:
        raise ValueError("magnetization needs sector labels or eigenvectors")
    return ThermoGrid(temperature=t, probabilities=p, log_z=log_z, u=u, m=m)


def thermo_point(sd: SpectralDecomposition, spec: ModelSpec,
                 temperature: float) -> ThermoPoint:
    """Partition function (as log Z), internal energy and magnetization at one
    temperature: the one-row case of thermo_grid."""
    grid = thermo_grid(sd, spec, [temperature])
    u, m, n = float(grid.u[0]), float(grid.m[0]), spec.n_sites
    return ThermoPoint(
        temperature=float(temperature),
        beta=math.inf if temperature == 0.0 else 1.0 / temperature,
        log_z=float(grid.log_z[0]),
        u=u,
        u_per_site=u / n,
        m=m,
        m_per_site=m / n,
    )


def check_derivatives(spec: ModelSpec, temperature: float) -> tuple[float, float]:
    """Residuals of U and M against central finite differences of log Z.

    U is checked as -d(log Z)/d(beta) on the same spectrum; M as
    -(1/beta) d(log Z)/dB, re-diagonalizing at B +- FIELD_STEP.  Returns the two
    absolute residuals.  Every spectrum is values-only, except that an
    S_z-breaking spec has no sector labels and reads M off its eigenvectors.
    """
    if temperature <= 0:
        raise ValueError("finite-difference check needs temperature > 0")
    sd = decompose(spec, vectors=not spec.conserves_sz)
    tp = thermo_point(sd, spec, temperature)

    beta = 1.0 / temperature
    dbeta = 1e-4 * max(1.0, beta)
    lz_plus = _log_z(sd, 1.0 / (beta + dbeta))
    lz_minus = _log_z(sd, 1.0 / (beta - dbeta))
    u_fd = -(lz_plus - lz_minus) / (2.0 * dbeta)

    def shifted(delta_b: float) -> float:
        shifted_spec = replace(spec, field_b=spec.field_b + delta_b)
        return _log_z(decompose(shifted_spec, vectors=False), temperature)

    m_fd = -(shifted(FIELD_STEP) - shifted(-FIELD_STEP)) / (2.0 * FIELD_STEP * beta)
    return abs(u_fd - tp.u), abs(m_fd - tp.m)


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

    def shifted(step: float) -> float:
        coupling = replace(spec.coupling, delta=spec.coupling.delta + step)
        return _log_z(decompose(replace(spec, coupling=coupling), vectors=False), temperature)

    dlog_z = (shifted(DELTA_STEP) - shifted(-DELTA_STEP)) / (2.0 * DELTA_STEP)
    return -temperature / spec.coupling.j * dlog_z
