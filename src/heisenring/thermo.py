"""Canonical ensemble: partition function, occupation probabilities, U and M.

All Boltzmann weights are computed with the ground-energy shift
exp(-beta*(E_i - E_0)), so only log Z is ever formed (beta*|E| can exceed
700 in low-temperature sweeps).  T = 0 means the uniform mixture over the
ground multiplet, the maximum-entropy limit of the Gibbs state.  At T > 0 the whole ground multiplet (the
ground_degeneracy lowest eigenvalues) has weight exactly 1, so the limit
T -> 0 reaches that mixture however small T is.

Every caller asks for its temperatures as one grid, and one temperature
is a grid of one: thermo_grid builds one (R, dim) weight matrix and takes
the probabilities, log Z, U and M of every temperature from it.  U and M
are reduced one temperature at a time, as 1-D dot products over a row of
probabilities: a stacked matrix product sums in another order and moves
them in the last bits.  So each row is the same number whatever else
shares its grid.  The grid keeps the decomposition it came from, which
twoqubit.pair_rdms reads, so no caller hands the spectrum over twice.

The full Gibbs matrix is never formed here: oracle.gibbs_state builds it
from the eigenvectors as a reference for the pair-RDM route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import ModelSpec
from .spectral import SpectralDecomposition, decompose

# field step of the central difference in check_derivatives
FIELD_STEP = 1e-4
# anisotropy step of the central difference in zz_from_log_z
DELTA_STEP = 1e-4


@dataclass(frozen=True)
class ThermoGrid:
    """Thermal quantities at R temperatures: probabilities (R, dim), the rest (R,).

    decomposition is the spectrum they came from; pair_rdms reads it.
    """

    temperature: np.ndarray
    probabilities: np.ndarray
    log_z: np.ndarray
    u: np.ndarray
    m: np.ndarray
    decomposition: SpectralDecomposition = field(repr=False, compare=False)


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


def thermo_grid(sd: SpectralDecomposition, temperatures: np.ndarray) -> ThermoGrid:
    """Probabilities, log Z, internal energy and magnetization at each temperature.

    U is the thermal average of the eigenvalues; M is <sum_i sigma_iz>,
    evaluated from the sector labels when present (exact for S_z-conserving
    models) and from the eigenvectors otherwise; N is read off sd.dim = 2^N.
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
        n = sd.dim.bit_length() - 1
        blocks = [((n - 2 * np.bitwise_count(states).astype(np.int64)).astype(float),
                   np.abs(v) ** 2, cols) for states, v, cols in sd.eigvec_blocks]
        m = np.array([sum(ds @ (weight @ row[cols]) for ds, weight, cols in blocks)
                      for row in p])
    else:
        raise ValueError("magnetization needs sector labels or eigenvectors")
    return ThermoGrid(temperature=t, probabilities=p, log_z=log_z, u=u, m=m, decomposition=sd)


def _log_z(spec: ModelSpec, temperature: float) -> float:
    """log Z of `spec` at one temperature, from its values-only spectrum."""
    return _weights(decompose(spec, vectors=False), [temperature])[1][0]


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
    beta = 1.0 / temperature
    dbeta = 1e-4 * max(1.0, beta)
    # rows: T, then beta + dbeta and beta - dbeta
    grid = thermo_grid(sd, [temperature, 1.0 / (beta + dbeta), 1.0 / (beta - dbeta)])
    u_fd = -(grid.log_z[1] - grid.log_z[2]) / (2.0 * dbeta)

    up, down = (_log_z(replace(spec, field_b=spec.field_b + step), temperature)
                for step in (FIELD_STEP, -FIELD_STEP))
    m_fd = -(up - down) / (2.0 * FIELD_STEP * beta)
    return float(abs(u_fd - grid.u[0])), float(abs(m_fd - grid.m[0]))


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

    c = spec.coupling
    up, down = (_log_z(replace(spec, coupling=replace(c, delta=c.delta + step)), temperature)
                for step in (DELTA_STEP, -DELTA_STEP))
    dlog_z = (up - down) / (2.0 * DELTA_STEP)
    return float(-temperature / spec.coupling.j * dlog_z)
