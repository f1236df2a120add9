"""Temperature sweeps: every observable as one column over the grid.

One spectral decomposition serves the whole grid of R temperatures, and
the grid runs through the pipeline in row blocks of
max(1, BLOCK_BYTES // (8 dim + ROW_BYTES)) temperatures, so that no
(R, dim) array is formed and a block of a small ring, whose rows hold
more than their weights, stays near BLOCK_BYTES too.  For each block
thermo.thermo_grid gives the (rows, dim) weight matrix, and with it
log Z, U and M at every temperature of the block;
twoqubit.pair_rdms forms the (rows, 4, 4) stack of pair RDMs from that
grid and the pair table of the decomposition it carries.  Which
decomposition that is depends on the spec (sweep_decomposition).  Every
pair of a uniform ring takes the pair mode of spectral.decompose:
momentum blocks, no eigenvectors kept, and a pair table filled from each
eigenstate's S_z label and its sigma^z sigma^z and sigma^x sigma^x +
sigma^y sigma^y sums over the pairs at the pair's distance.  Every
general-coupling spec takes the sector (or parity) eigenvectors and the
pair table built from them once.  The correlation tensors, the
concurrence routes and the Bell measure are then computed once for the
block's stack: stacked eigh, svd and eigvalsh, and array expressions for
the closed forms.  Every stage works row by row, so a row's values do not
depend on the block it falls in.  Columns whose formula preconditions
fail are None, never zero.

sweep_blocks yields the columns block by block, which the command line
renders and writes before it computes the next block; run_sweep joins
them into one table.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .bell import violation_measure
from .entanglement import concurrence_report
from .model import ModelSpec
from .spectral import SpectralDecomposition, decompose
from .thermo import ThermoGrid, thermo_grid
from .twoqubit import correlations_from_rdm, pair_rdms

# bytes of one row block: its float64 (rows, dim) weight matrix and
# ROW_BYTES per row besides.  Small next to the ~30 MB a process starts
# at, yet 30 rows at N = 12, where a block's fixed cost of numpy calls is
# already a fifth of its work; 256 KiB blocks took 1.7x as long there
# (4096 temperatures, 2 vCPU, one BLAS thread)
BLOCK_BYTES = 1 << 20
# the bytes a row takes after its weights: its pair RDM, correlation,
# concurrence and Bell stacks, its column lists and its rendered text.
# The tracemalloc peak of one block through render_csv and render_json,
# per row and less 8 dim, from the difference of blocks of R and 4R rows,
# was 1680 B at every N = 2..12 in the pair mode, on S_z-sector and on
# parity eigenvectors, and in the pair mode at N = 13 and 14 (where the
# (rows, dim) exponent temporary of thermo_grid hides it, 1577 and 0 B)
ROW_BYTES = 1680

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
    eigenvectors, and pair_rdms builds the pair table from them on the
    first row block and keeps it for the others.
    """
    if spec.is_uniform:
        return decompose(spec, pair=pair)
    return decompose(spec)


def _block_columns(spec: ModelSpec, grid: ThermoGrid, pair: tuple[int, int]) -> dict[str, list]:
    """Every column in COLUMNS over the temperatures of one row block."""
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


def sweep_blocks(spec: ModelSpec, temperatures: np.ndarray,
                 pair: tuple[int, int] = (1, 2)) -> Iterator[dict[str, list]]:
    """The columns of run_sweep, one row block of the grid at a time.

    The spec is decomposed here, before the first block is asked for;
    each block then holds max(1, BLOCK_BYTES // (8 dim + ROW_BYTES))
    temperatures, the last one what is left, and an empty grid gives no
    block.
    """
    sd = sweep_decomposition(spec, pair)
    t = np.asarray(temperatures, dtype=float)
    rows = max(1, BLOCK_BYTES // (8 * sd.dim + ROW_BYTES))
    return (_block_columns(spec, thermo_grid(sd, t[k:k + rows]), pair)
            for k in range(0, t.size, rows))


def run_sweep(spec: ModelSpec, temperatures: np.ndarray,
              pair: tuple[int, int] = (1, 2)) -> dict[str, list]:
    """Every column in COLUMNS, as name -> list of values in grid order."""
    columns = {name: [] for name in COLUMNS}
    for block in sweep_blocks(spec, temperatures, pair):
        for name, values in block.items():
            columns[name] += values
    return columns
