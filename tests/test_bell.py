import math

import numpy as np
import pytest

from heisenring import (
    MeasurementFrame,
    TwoQubitRDM,
    chsh_expectation,
    concurrence_vs_violation,
    concurrence_wootters,
    correlations_from_rdm,
    optimal_frame,
    pair_rdms,
    random_frame_search,
    random_frames,
    thermo_grid,
    violation_measure,
    violation_xxx,
)
from heisenring.bell import frame_expectations
from heisenring.oracle import correlations, gibbs_state
from helpers import SINGLET_RHO, cached_decompose

TSIRELSON = 2.0 * math.sqrt(2.0)


def _ts(matrix):
    """Correlation tensor T of a 4x4 density matrix, as a stack of one."""
    return correlations_from_rdm(
        TwoQubitRDM.from_matrix(np.asarray(matrix, dtype=complex)[None], (1, 2))).g


def _t(matrix):
    """Correlation tensor T of a 4x4 density matrix, for the frame tools."""
    return _ts(matrix)[0]


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
    grid = thermo_grid(sd, [0.7])
    t = correlations_from_rdm(pair_rdms(grid, 1, 2)).g[0]
    g = grid.u[0] / (3.0 * 4)
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
    rdm = pair_rdms(thermo_grid(sd, [0.6]), 1, 2)
    t = correlations_from_rdm(rdm).g[0]
    frame = MeasurementFrame(*random_frames(1, seed=3)[0])

    def dot(v):
        return np.einsum("i,ijk->jk", v, paulis)

    op = (np.kron(dot(frame.a), dot(frame.b + frame.b_prime))
          + np.kron(dot(frame.a_prime), dot(frame.b - frame.b_prime)))
    expected = np.trace(rdm.matrix[0] @ op).real
    assert abs(chsh_expectation(t, frame) - expected) <= 1e-12


def test_violation_measure_singlet():
    res = violation_measure(_ts(SINGLET_RHO))
    assert abs(res.measure[0] - TSIRELSON) <= 1e-12
    assert res.violates.tolist() == [True]


def test_violation_measure_product_state_at_classical_bound():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    res = violation_measure(_ts(rho))
    assert abs(res.measure[0] - 2.0) <= 1e-12
    assert [v.tolist() for v in res.top_two] == [[1.0], [0.0]]
    assert res.violates.tolist() == [False]


def test_violation_two_site_closed_form():
    spec, sd = cached_decompose(2, 1.0)
    grid = thermo_grid(sd, [1.0])
    res = violation_measure(correlations_from_rdm(pair_rdms(grid, 1, 2)).g)
    assert abs(res.measure[0] - TSIRELSON * abs(grid.u[0]) / 6.0) <= 1e-10


def test_violation_xxx_limits():
    assert violation_xxx(np.array([0.0]), 1.0, 4).tolist() == [0.0]
    spec, sd = cached_decompose(3, 1.0)
    u = thermo_grid(sd, [1.0]).u
    assert abs(violation_xxx(u, 1.0, 3)[0]
               - TSIRELSON * math.tanh(3.0) / 3.0) <= 1e-12
    with pytest.raises(ValueError):
        violation_xxx(np.array([-1.0]), 0.0, 2)


@pytest.mark.parametrize("n,j", [(2, 1.0), (3, 1.0), (5, 1.0), (4, -1.0)])
def test_violation_closed_form_matches_measure(n, j):
    spec, sd = cached_decompose(n, j)
    grid = thermo_grid(sd, [0.1, 0.8, 3.0])
    res = violation_measure(correlations_from_rdm(pair_rdms(grid, 1, 2)).g)
    assert np.max(np.abs(res.measure - violation_xxx(grid.u, j, n))) <= 1e-10


def test_concurrence_vs_violation_mapping():
    assert concurrence_vs_violation(np.array([TSIRELSON]), 1.0).tolist() == [1.0]
    assert concurrence_vs_violation(np.array([2.0, TSIRELSON]), -1.0).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="outside"):
        concurrence_vs_violation(np.array([1.0, 3.0]), 1.0)
    with pytest.raises(ValueError, match="j != 0"):
        concurrence_vs_violation(np.array([1.0]), 0.0)


@pytest.mark.parametrize("route, name", [
    (lambda u: violation_xxx(u, 1.0, 2), "u"),
    (lambda measure: concurrence_vs_violation(measure, 1.0), "measure"),
], ids=["violation_xxx", "concurrence_vs_violation"])
def test_closed_form_refuses_a_bare_scalar(route, name):
    # a scalar came back as a bare np.float64 instead of an (R,) array
    for value in (-1.0, 2.5, np.array(2.5), np.full((1, 1), 2.5)):
        with pytest.raises(ValueError, match=rf"{name} must be an \(R,\) array"):
            route(value)
    assert route(np.array([-1.0 if name == "u" else 2.5])).shape == (1,)


@pytest.mark.parametrize("n,j", [(2, 1.0), (4, 1.0), (5, 1.0), (3, -1.0)])
def test_concurrence_violation_relation_on_grid(n, j):
    spec, sd = cached_decompose(n, j)
    rdm = pair_rdms(thermo_grid(sd, np.geomspace(0.1, 20.0, 10)),
                    1, 2)
    res = violation_measure(correlations_from_rdm(rdm).g)
    c = concurrence_wootters(rdm).wootters
    assert np.max(np.abs(concurrence_vs_violation(res.measure, j) - c)) <= 1e-9
    assert np.all(c[res.violates] > 0.0)


def test_entangled_without_violation_window():
    # antiferromagnetic two-site ring passes through 2sqrt(2)/3 < B <= 2
    spec, sd = cached_decompose(2, 1.0)
    seen = False
    rdm = pair_rdms(thermo_grid(sd, np.linspace(3.0, 7.0, 25)), 1, 2)
    res = violation_measure(correlations_from_rdm(rdm).g)
    for measure, violates, c in zip(res.measure, res.violates,
                                    concurrence_wootters(rdm).wootters):
        if TSIRELSON / 3.0 < measure <= 2.0:
            seen = True
            assert not violates
            assert c > 0.0
    assert seen


def test_random_frames_never_beat_measure():
    frames = random_frames(10_000, seed=11)
    cases = [(2, 1.0, 1.0, 0.0, 0.5), (4, 1.0, 0.5, 0.3, 1.0), (5, -1.0, 2.0, 0.0, 0.2)]
    for n, j, delta, b, t in cases:
        spec, sd = cached_decompose(n, j, delta, b)
        grid = thermo_grid(sd, [t])
        gs = correlations_from_rdm(pair_rdms(grid, 1, 2)).g
        best = float(np.max(np.abs(frame_expectations(gs[0], frames))))
        assert best <= violation_measure(gs).measure[0] + 1e-8


def test_random_frame_search_deterministic():
    spec, sd = cached_decompose(3, 1.0)
    grid = thermo_grid(sd, [0.4])
    g = correlations_from_rdm(pair_rdms(grid, 1, 2)).g[0]
    assert random_frame_search(g, 500, seed=5) == random_frame_search(g, 500, seed=5)
    assert np.array_equal(random_frames(64, 9), random_frames(64, 9))
    assert not np.array_equal(random_frames(64, 9), random_frames(64, 10))


def test_optimal_frame_attains_measure():
    cases = [SINGLET_RHO, np.eye(4) / 4.0]
    spec, sd = cached_decompose(5, 1.0, 2.0, 0.5)
    grid = thermo_grid(sd, [0.2, 1.0])
    tensors = np.concatenate([_ts(c) for c in cases]
                             + [correlations_from_rdm(pair_rdms(grid, 1, 2)).g])
    for g, measure in zip(tensors, violation_measure(tensors).measure):
        frame = optimal_frame(g)
        assert abs(abs(chsh_expectation(g, frame)) - measure) <= 1e-10


def test_measure_depends_only_on_correlations():
    # in a field: the full-space tensor from the Gibbs matrix and the tensor
    # of the table-route pair RDM give the same measure
    spec, sd = cached_decompose(4, 1.0, 1.0, 0.8)
    grid = thermo_grid(sd, [0.5])
    measure = violation_measure(correlations_from_rdm(pair_rdms(grid, 1, 2)).g).measure
    full = violation_measure(correlations(gibbs_state(sd, 0.5)[None], 1, 2).g).measure
    assert abs(full[0] - measure[0]) <= 1e-12
    assert 0.0 <= measure[0] <= TSIRELSON + 1e-10


def test_frame_validation():
    good = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="unit"):
        MeasurementFrame(2.0 * good, good, good, good)
    with pytest.raises(ValueError, match="3-vector"):
        MeasurementFrame(np.ones(4), good, good, good)


def test_tensor_shape_checked():
    # a bare 3x3 tensor is refused too: one state is a stack of one
    for t in (np.eye(3), np.eye(4), np.zeros((2, 3, 4)), np.zeros((1, 1, 3, 3))):
        with pytest.raises(ValueError, match=r"\(R, 3, 3\) stack"):
            violation_measure(t)
