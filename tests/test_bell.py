import math

import numpy as np
import pytest

from heisenring import (
    MeasurementFrame,
    TwoQubitRDM,
    chsh_expectation,
    concurrence_vs_violation,
    concurrence_wootters,
    correlations,
    correlations_from_rdm,
    gibbs_state,
    optimal_frame,
    pair_rdm_thermal,
    random_frame_search,
    random_frames,
    thermo_point,
    violation_measure,
    violation_xxx,
)
from heisenring.bell import frame_expectations
from helpers import SINGLET_RHO, cached_decompose

TSIRELSON = 2.0 * math.sqrt(2.0)


def _rdm(matrix):
    return TwoQubitRDM.from_matrix(np.asarray(matrix, dtype=complex), (1, 2))


def _t(matrix):
    """Correlation tensor T of a 4x4 density matrix."""
    return correlations_from_rdm(_rdm(matrix)).g


def _thermal(sd, t):
    """Pair RDM of sites (1, 2) and its correlation tensor."""
    rdm = pair_rdm_thermal(sd, t, 1, 2)
    return rdm, correlations_from_rdm(rdm).g


def _canonical_frame():
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    return MeasurementFrame(x, y, -(x + y) / math.sqrt(2.0), (y - x) / math.sqrt(2.0))


def test_t_matrix_singlet():
    assert np.max(np.abs(_t(SINGLET_RHO) + np.eye(3))) <= 1e-12


def test_t_matrix_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert np.max(np.abs(_t(rho) - np.diag([0.0, 0.0, 1.0]))) <= 1e-12


def test_t_matrix_isotropic_thermal_is_scalar():
    spec, sd = cached_decompose(4, 1.0)
    tp = thermo_point(sd, spec, 0.7)
    _, t = _thermal(sd, 0.7)
    g = tp.u / (3.0 * 4)
    assert np.max(np.abs(t - g * np.eye(3))) <= 1e-10


def test_chsh_singlet_canonical_frame():
    val = chsh_expectation(_t(SINGLET_RHO), _canonical_frame())
    assert abs(abs(val) - TSIRELSON) <= 1e-12


def test_chsh_maximally_mixed():
    frames = random_frames(32, seed=7)
    t = _t(np.eye(4) / 4.0)
    for k in range(frames.shape[0]):
        frame = MeasurementFrame(*frames[k])
        assert abs(chsh_expectation(t, frame)) <= 1e-12


def test_chsh_equals_operator_trace():
    # a.T(b+b') + a'.T(b-b') is tr(rho B) for the explicit CHSH operator
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    paulis = np.stack([sx, sy, sz])

    spec, sd = cached_decompose(4, 1.0, 0.5, 0.3)
    rdm, t = _thermal(sd, 0.6)
    frame = MeasurementFrame(*random_frames(1, seed=3)[0])

    def dot(v):
        return np.einsum("i,ijk->jk", v, paulis)

    op = (np.kron(dot(frame.a), dot(frame.b + frame.b_prime))
          + np.kron(dot(frame.a_prime), dot(frame.b - frame.b_prime)))
    expected = np.trace(rdm.matrix @ op).real
    assert abs(chsh_expectation(t, frame) - expected) <= 1e-12


def test_violation_measure_singlet():
    res = violation_measure(_t(SINGLET_RHO))
    assert abs(res.measure - TSIRELSON) <= 1e-12
    assert res.violates


def test_violation_measure_product_state_at_classical_bound():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    res = violation_measure(_t(rho))
    assert abs(res.measure - 2.0) <= 1e-12
    assert res.top_two == (1.0, 0.0)
    assert not res.violates


def test_violation_two_site_closed_form():
    spec, sd = cached_decompose(2, 1.0)
    tp = thermo_point(sd, spec, 1.0)
    res = violation_measure(_thermal(sd, 1.0)[1])
    assert abs(res.measure - TSIRELSON * abs(tp.u) / 6.0) <= 1e-10


def test_violation_xxx_limits():
    assert violation_xxx(0.0, 1.0, 4) == 0.0
    spec, sd = cached_decompose(3, 1.0)
    tp = thermo_point(sd, spec, 1.0)
    assert abs(violation_xxx(tp.u, 1.0, 3)
               - TSIRELSON * math.tanh(3.0) / 3.0) <= 1e-12
    with pytest.raises(ValueError):
        violation_xxx(-1.0, 0.0, 2)


@pytest.mark.parametrize("n,j", [(2, 1.0), (3, 1.0), (5, 1.0), (4, -1.0)])
def test_violation_closed_form_matches_measure(n, j):
    spec, sd = cached_decompose(n, j)
    for t in (0.1, 0.8, 3.0):
        tp = thermo_point(sd, spec, t)
        res = violation_measure(_thermal(sd, t)[1])
        assert abs(res.measure - violation_xxx(tp.u, j, n)) <= 1e-10


def test_concurrence_vs_violation_mapping():
    assert concurrence_vs_violation(TSIRELSON, "afm") == 1.0
    assert concurrence_vs_violation(2.0, "fm") == 0.0
    assert concurrence_vs_violation(TSIRELSON, "fm") == 0.0
    with pytest.raises(ValueError):
        concurrence_vs_violation(3.0, "afm")
    with pytest.raises(ValueError):
        concurrence_vs_violation(1.0, "xfm")


@pytest.mark.parametrize("n,j", [(2, 1.0), (4, 1.0), (5, 1.0), (3, -1.0)])
def test_concurrence_violation_relation_on_grid(n, j):
    spec, sd = cached_decompose(n, j)
    regime = "afm" if j > 0 else "fm"
    for t in np.geomspace(0.1, 20.0, 10):
        rdm, g = _thermal(sd, float(t))
        res = violation_measure(g)
        c_from_b = concurrence_vs_violation(res.measure, regime)
        assert abs(c_from_b - concurrence_wootters(rdm).wootters) <= 1e-9
        if res.violates:
            assert concurrence_wootters(rdm).wootters > 0.0


def test_entangled_without_violation_window():
    # antiferromagnetic two-site ring passes through 2sqrt(2)/3 < B <= 2
    spec, sd = cached_decompose(2, 1.0)
    seen = False
    for t in np.linspace(3.0, 7.0, 25):
        rdm, g = _thermal(sd, float(t))
        res = violation_measure(g)
        if TSIRELSON / 3.0 < res.measure <= 2.0:
            seen = True
            assert not res.violates
            assert concurrence_wootters(rdm).wootters > 0.0
    assert seen


def test_random_frames_never_beat_measure():
    frames = random_frames(10_000, seed=11)
    cases = [(2, 1.0, 1.0, 0.0, 0.5), (4, 1.0, 0.5, 0.3, 1.0), (5, -1.0, 2.0, 0.0, 0.2)]
    for n, j, delta, b, t in cases:
        spec, sd = cached_decompose(n, j, delta, b)
        _, g = _thermal(sd, t)
        res = violation_measure(g)
        best = float(np.max(np.abs(frame_expectations(g, frames))))
        assert best <= res.measure + 1e-8


def test_random_frame_search_deterministic():
    spec, sd = cached_decompose(3, 1.0)
    _, g = _thermal(sd, 0.4)
    assert random_frame_search(g, 500, seed=5) == random_frame_search(g, 500, seed=5)
    assert np.array_equal(random_frames(64, 9), random_frames(64, 9))
    assert not np.array_equal(random_frames(64, 9), random_frames(64, 10))


def test_optimal_frame_attains_measure():
    cases = [SINGLET_RHO, np.eye(4) / 4.0]
    spec, sd = cached_decompose(5, 1.0, 2.0, 0.5)
    tensors = [_t(c) for c in cases] + [_thermal(sd, t)[1] for t in (0.2, 1.0)]
    for g in tensors:
        res = violation_measure(g)
        frame = optimal_frame(g)
        assert abs(abs(chsh_expectation(g, frame)) - res.measure) <= 1e-10


def test_measure_depends_only_on_correlations():
    # in a field: the full-space tensor from the Gibbs matrix and the tensor
    # of the table-route pair RDM give the same measure
    spec, sd = cached_decompose(4, 1.0, 1.0, 0.8)
    _, g = _thermal(sd, 0.5)
    res = violation_measure(g)
    full = violation_measure(correlations(gibbs_state(sd, 0.5), 1, 2).g)
    assert abs(full.measure - res.measure) <= 1e-12
    assert 0.0 <= res.measure <= TSIRELSON + 1e-10


def test_frame_validation():
    good = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="unit"):
        MeasurementFrame(2.0 * good, good, good, good)
    with pytest.raises(ValueError, match="3-vector"):
        MeasurementFrame(np.ones(4), good, good, good)


def test_tensor_shape_checked():
    with pytest.raises(ValueError, match="3x3"):
        violation_measure(np.eye(4))
