"""Exact diagonalization of spin-1/2 Heisenberg rings.

Thermal (Gibbs) states, thermodynamic potentials, two-site reduced density
matrices, Wootters concurrence by every applicable closed-form route, and
the Horodecki CHSH-violation measure, with the cross-route agreement
serving as the built-in correctness instrument.
"""

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
    concurrence_ground_state,
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
    global_flip,
    pauli_at,
    ring_coupling_matrices,
    shift_operator,
    symmetry_report,
    total_spin,
)
from .spectral import (
    SpectralDecomposition,
    decompose,
    diagonalize_full,
    diagonalize_sectored,
)
from .sweep import COLUMNS, run_sweep, sweep_row, temperature_grid
from .thermo import (
    GibbsState,
    ThermoPoint,
    check_derivatives,
    gibbs_state,
    thermo_point,
)
from .threshold import ThresholdResult, find_threshold, u_of_n_scan
from .twoqubit import (
    CorrelationSet,
    TwoQubitRDM,
    check_element_relations,
    correlations,
    correlations_from_rdm,
    pair_rdm_thermal,
    reduce_to_pair,
)
from .verify import CheckResult, VerifyOptions, run_verification

__version__ = "0.1.0"
