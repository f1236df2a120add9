"""Temperature sweeps: one row of observables per grid point.

All rows share one spectral decomposition; after the first row has built
the pair table, each row costs one Boltzmann-weighted table product plus
the 4x4 work.  Columns whose formula preconditions fail are None, never
zero.
"""

from __future__ import annotations

import numpy as np

from .bell import violation_measure
from .entanglement import concurrence_report
from .model import ModelSpec
from .spectral import SpectralDecomposition, decompose
from .thermo import thermo_point
from .twoqubit import correlations_from_rdm, pair_rdm_thermal

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
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "log":
        if start <= 0:
            raise ValueError("log spacing needs start > 0")
        return np.geomspace(start, stop, count)
    raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def sweep_row(sd: SpectralDecomposition, spec: ModelSpec, temperature: float,
              pair: tuple[int, int] = (1, 2)) -> dict:
    """All sweep columns at one temperature."""
    tp = thermo_point(sd, spec, temperature)
    rdm = pair_rdm_thermal(sd, temperature, *pair)
    cs = correlations_from_rdm(rdm)
    report = concurrence_report(rdm, cs, spec, tp.u_per_site)
    bell = violation_measure(rdm)
    return {
        "T": tp.temperature,
        "log_z": tp.log_z,
        "U": tp.u,
        "U_per_site": tp.u_per_site,
        "M": tp.m,
        "G_xx": float(cs.g[0, 0]),
        "G_yy": float(cs.g[1, 1]),
        "G_zz": float(cs.g[2, 2]),
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


def run_sweep(spec: ModelSpec, temperatures: np.ndarray,
              pair: tuple[int, int] = (1, 2)) -> list[dict]:
    """One row per temperature, in grid order."""
    sd = decompose(spec)
    return [sweep_row(sd, spec, float(t), pair) for t in temperatures]
