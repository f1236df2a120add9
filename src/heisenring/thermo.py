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
shares its grid, and a sweep hands its grid over in row blocks
(sweep.BLOCK_BYTES, sized by the weights and sweep.ROW_BYTES per row)
with the same result as in one piece.  What M needs
of the eigenvectors or labels, and E_n - E_0, the decomposition builds
once (SpectralDecomposition.spin_weights, label_magnetization and
excitations), not once per block.  The grid keeps
the decomposition it came from, which twoqubit.pair_rdms reads, so no
caller hands the spectrum over twice.

The full Gibbs matrix is never formed here: oracle.gibbs_state builds it
from the eigenvectors as a reference for the pair-RDM route.  The
finite-difference checks of U, M and the sigma^z sigma^z bond sum against
log Z (oracle.check_derivatives and oracle.zz_from_log_z) are reference
routes too and live there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import SpectralDecomposition


@dataclass(frozen=True, eq=False)
class ThermoGrid:
    """Thermal quantities at R temperatures: probabilities (R, dim), the rest (R,).

    decomposition is the spectrum they came from; pair_rdms reads it.
    """

    temperature: np.ndarray
    probabilities: np.ndarray
    log_z: np.ndarray
    u: np.ndarray
    m: np.ndarray
    decomposition: SpectralDecomposition = field(repr=False)


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
    e0, g = sd.eigenvalues[0], sd.ground_degeneracy
    # a T = 0 row divides by zero: -inf (weight 0) above the ground level
    # and nan on it, where the weight of 1 overwrites it
    with np.errstate(divide="ignore", invalid="ignore"):
        p = -sd.excitations / t[:, None]
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
    models) and from the eigenvectors otherwise (sd.spin_weights).
    """
    t = np.asarray(temperatures, dtype=float)
    p, log_z = _weights(sd, t)
    e0, de = sd.eigenvalues[0], sd.excitations
    u = np.array([e0 + de @ row for row in p])

    if sd.sector_labels is not None:
        spin = sd.label_magnetization
        m = np.array([spin @ row for row in p])
    else:
        blocks = sd.spin_weights
        m = np.array([sum(ds @ (weight @ row[cols]) for ds, weight, cols in blocks)
                      for row in p])
    return ThermoGrid(temperature=t, probabilities=p, log_z=log_z, u=u, m=m, decomposition=sd)

