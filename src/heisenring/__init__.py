"""Exact diagonalization of spin-1/2 Heisenberg rings.

Thermal (Gibbs) states, thermodynamic potentials, two-site reduced density
matrices, Wootters concurrence by every applicable closed-form route, and
the Horodecki CHSH-violation measure, with the cross-route agreement
serving as the built-in correctness instrument.

The package exports the production route alone, one route per quantity.
The reference routes that verify and the tests check it against (the
dense Hamiltonian and eigensolver, the Gibbs matrix, full-space
correlations, finite differences of log Z and the CHSH frame search)
live in heisenring.oracle, and the verification suite in
heisenring.verify; neither is imported or re-exported here.
"""

# _blas first: it imports numpy with OpenBLAS started on one thread, which
# works only while nothing has imported numpy yet
from . import _blas  # noqa: F401
from .bell import (
    BellResult,
    concurrence_vs_violation,
    violation_measure,
    violation_xxx,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence_anisotropic,
    concurrence_from_correlations,
    concurrence_report,
    concurrence_wootters,
    concurrence_x_form,
    concurrence_xxx_energy,
    concurrence_xxx_field,
)
from .model import (
    GeneralCoupling,
    ModelSpec,
    UniformCoupling,
    ring_coupling_matrices,
)
from .spectral import SpectralDecomposition, decompose
from .sweep import COLUMNS, run_sweep, temperature_grid
from .thermo import ThermoGrid, thermo_grid
from .threshold import ThresholdResult, find_threshold, u_of_n_scan
from .twoqubit import (
    CorrelationSet,
    TwoQubitRDM,
    correlations_from_rdm,
    pair_rdms,
)

__version__ = "0.1.0"
