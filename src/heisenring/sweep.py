"""Temperature sweeps: every observable as one column over the grid.

One spectral decomposition serves the whole grid of R temperatures.
thermo.thermo_grid turns it into one (R, dim) weight matrix, and with it
log Z, U and M at every temperature; twoqubit.pair_rdms forms the
(R, 4, 4) stack of pair RDMs from that grid and the pair table of the
decomposition it carries.  Which decomposition that is depends on the
spec (sweep_decomposition).  Every
pair of a uniform ring takes the pair mode of spectral.decompose:
momentum blocks, no eigenvectors kept, and a pair table filled from each
eigenstate's S_z label and its sigma^z sigma^z and sigma^x sigma^x +
sigma^y sigma^y sums over the pairs at the pair's distance.  Every
general-coupling spec takes the sector (or parity) eigenvectors and the
pair table built from them.  The correlation tensors, the concurrence
routes and the Bell measure are then computed once for the whole stack:
stacked eigh, svd and eigvalsh, and array expressions for the closed
forms.  Columns whose formula preconditions
fail are None, never zero.
"""

from __future__ import annotations

import math

import numpy as np

from .bell import violation_measure
from .entanglement import concurrence_report
from .model import ModelSpec
from .spectral import SpectralDecomposition, decompose
from .thermo import thermo_grid
from .twoqubit import correlations_from_rdm, pair_rdms

COLUMNS = (
    "T", "log_z", "U", "U_per_site", "M",
    "G_xx", "G_yy", "G_zz",
    "u_plus", "u_minus", "z_re", "z_im",
    "C_wootters", "C_x_form", "C_correlation", "C_energy",
    "bell_measure", "bell_violates", "max_route_disagreement",
)


def temperature_grid(start: float, stop: float, count: int,
                     spacing: str = "linear") -> np.ndarray:
    """Temperature grid, linear or logarithmic, endpoints included."""
    if not np.all(np.isfinite((start, stop))):
        raise ValueError(f"start and stop must be finite, got {start!r}, {stop!r}")
    if start < 0 or stop < 0:
        raise ValueError(f"start and stop must be >= 0, got {start!r}, {stop!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "log":
        if start <= 0:
            raise ValueError("log spacing needs start > 0")
        return np.geomspace(start, stop, count)
    raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def sweep_decomposition(spec: ModelSpec, pair: tuple[int, int]) -> SpectralDecomposition:
    """The decomposition run_sweep reads the pair's RDMs from.

    Any pair of a uniform spec takes decompose's pair mode: its pair table
    comes from (S_z label, ZZ_n, XY_n) on the momentum blocks, with no
    eigenvectors kept.  A general spec takes the S_z-sector or parity
    eigenvectors, from which pair_rdms builds the pair table.
    """
    return decompose(spec, pair=pair) if spec.is_uniform else decompose(spec)


def run_sweep(spec: ModelSpec, temperatures: np.ndarray,
              pair: tuple[int, int] = (1, 2)) -> dict[str, list]:
    """Every column in COLUMNS, as name -> list of values in grid order."""
    sd = sweep_decomposition(spec, pair)
    grid = thermo_grid(sd, temperatures)
    rdm = pair_rdms(grid, *pair)
    cs = correlations_from_rdm(rdm)
    u_bar = grid.u / spec.n_sites
    report = concurrence_report(rdm, cs, spec, u_bar)
    bell = violation_measure(cs.g)
    arrays = {
        "T": grid.temperature,
        "log_z": grid.log_z,
        "U": grid.u,
        "U_per_site": u_bar,
        "M": grid.m,
        "G_xx": cs.g[:, 0, 0],
        "G_yy": cs.g[:, 1, 1],
        "G_zz": cs.g[:, 2, 2],
        "u_plus": rdm.u_plus,
        "u_minus": rdm.u_minus,
        "z_re": rdm.z.real,
        "z_im": rdm.z.imag,
        "C_wootters": report.wootters,
        "C_x_form": report.x_form,
        "C_correlation": report.correlation_form,
        "C_energy": report.energy_form,
        "bell_measure": bell.measure,
        "bell_violates": bell.violates,
        "max_route_disagreement": report.max_disagreement,
    }
    columns = {name: arrays[name].tolist() for name in COLUMNS}
    for name in ("C_x_form", "C_correlation", "C_energy"):  # NaN: route absent on that row
        columns[name] = [None if math.isnan(v) else v for v in columns[name]]
    return columns
