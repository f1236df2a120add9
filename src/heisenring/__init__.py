"""Exact diagonalization of spin-1/2 Heisenberg rings.

Thermal (Gibbs) states, thermodynamic potentials, two-site reduced density
matrices, Wootters concurrence by every applicable closed-form route, and
the Horodecki CHSH-violation measure, with the cross-route agreement
serving as the built-in correctness instrument.

The full-space reference routes that verify and the tests check these
against live in heisenring.oracle, which is not re-exported here.
"""

# _blas first: it imports numpy with OpenBLAS started on one thread, which
# works only while nothing has imported numpy yet
from . import _blas  # noqa: F401
from .bell import (
    BellResult,
    MeasurementFrame,
    chsh_expectation,
    concurrence_vs_violation,
    optimal_frame,
    random_frame_search,
    random_frames,
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
    build_hamiltonian,
    ring_coupling_matrices,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    diagonalize_full,
)
from .sweep import COLUMNS, run_sweep, temperature_grid
from .thermo import (
    ThermoGrid,
    check_derivatives,
    thermo_grid,
)
from .threshold import ThresholdResult, find_threshold, u_of_n_scan
from .twoqubit import (
    CorrelationSet,
    TwoQubitRDM,
    check_element_relations,
    correlations_from_rdm,
    pair_rdms,
)
from .verify import CheckResult, VerifyOptions, run_verification

__version__ = "0.1.0"
