import math

import numpy as np
import pytest

from heisenring import (
    ModelSpec,
    TwoQubitRDM,
    concurrence_anisotropic,
    concurrence_from_correlations,
    concurrence_report,
    concurrence_wootters,
    concurrence_x_form,
    concurrence_xxx_energy,
    concurrence_xxx_field,
    correlations_from_rdm,
    pair_rdms,
    run_sweep,
    thermo_grid,
)
from heisenring.entanglement import clamp_concurrence
from heisenring.twoqubit import CorrelationSet
from helpers import SINGLET_RHO, c_two_site, cached_decompose


def _rdm(*matrices):
    """The 4x4 matrices as one TwoQubitRDM stack of pair (1, 2)."""
    return TwoQubitRDM.from_matrix(np.asarray(matrices, dtype=complex), (1, 2))


def _cs(g, m_per_site=0.0):
    """One correlation tensor and its M/N as a CorrelationSet stack of one."""
    return CorrelationSet(g=np.asarray(g, dtype=float)[None], m_per_site=np.array([m_per_site]))


def test_wootters_singlet():
    res = concurrence_wootters(_rdm(SINGLET_RHO))
    assert abs(res.wootters[0] - 1.0) <= 1e-12
    assert np.all(res.lambdas[0, :-1] >= res.lambdas[0, 1:])  # descending


def test_wootters_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert concurrence_wootters(_rdm(rho)).wootters.tolist() == [0.0]


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 7.0, 8.0, 20.0])
def test_wootters_two_site_closed_form(t):
    spec, sd = cached_decompose(2, 1.0)
    c = concurrence_wootters(
        pair_rdms(thermo_grid(sd, [t]), 1, 2)).wootters[0]
    assert abs(c - c_two_site(1.0 / t)) <= 1e-10


def test_wootters_rejects_garbage():
    bad = np.diag([2.0, 0.0, 0.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        concurrence_wootters(_rdm(bad))


def test_x_form_singlet_and_mixed():
    c = concurrence_x_form(_rdm(SINGLET_RHO, np.eye(4) / 4.0))
    assert abs(c[0] - 1.0) <= 1e-12
    assert c[1] == 0.0


def test_x_form_requires_pattern():
    rho = np.full((4, 4), 0.25, dtype=complex)  # |+>^2 projector, corners etc.
    with pytest.raises(ValueError, match="X-form"):
        concurrence_x_form(_rdm(rho))


@pytest.mark.parametrize("n,j,delta,b", [
    (3, 1.0, 1.0, 0.0), (4, 1.0, 0.5, 0.0), (5, -1.0, 2.0, 0.3), (6, 1.0, 1.0, 1.0),
])
def test_x_form_agrees_with_wootters(n, j, delta, b):
    spec, sd = cached_decompose(n, j, delta, b)
    grid = thermo_grid(sd, np.geomspace(0.1, 10.0, 8))
    rdm = pair_rdms(grid, 1, 2)
    assert np.all(np.abs(concurrence_x_form(rdm)
                         - concurrence_wootters(rdm).wootters) <= 1e-10)


def test_correlation_route_limits():
    assert abs(concurrence_from_correlations(_cs(-np.eye(3)))[0] - 1.0) <= 1e-12
    assert concurrence_from_correlations(_cs(np.zeros((3, 3)))).tolist() == [0.0]


def test_correlation_route_rejects_magnetized():
    with pytest.raises(ValueError, match="magnetization"):
        concurrence_from_correlations(_cs(np.zeros((3, 3)), 0.2))


@pytest.mark.parametrize("delta", [0.0, 0.5, 2.0])
def test_correlation_route_agrees_with_wootters(delta):
    spec, sd = cached_decompose(4, 1.0, delta)
    rdm = pair_rdms(thermo_grid(sd, [0.3, 0.5, 1.0, 4.0]), 1, 2)
    c = concurrence_from_correlations(correlations_from_rdm(rdm))
    assert np.all(np.abs(c - concurrence_wootters(rdm).wootters) <= 1e-9)


def test_energy_route_two_site():
    spec, sd = cached_decompose(2, 1.0)
    beta = 1.0
    c = concurrence_xxx_energy(thermo_grid(sd, [1.0 / beta]).u / 2, 1.0)
    assert abs(c[0] - (math.exp(8.0) - 3.0) / (math.exp(8.0) + 3.0)) <= 1e-10


def test_energy_route_three_site_never_entangled():
    spec, sd = cached_decompose(3, 1.0)
    u = thermo_grid(sd, [0.05, 0.5, 1.0, 10.0]).u
    assert np.all(concurrence_xxx_energy(u / 3, 1.0) == 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_energy_route_ferromagnetic_zero(n):
    spec, sd = cached_decompose(n, -1.0)
    u = thermo_grid(sd, [0.1, 1.0, 10.0]).u
    assert np.all(concurrence_xxx_energy(u / n, -1.0) == 0.0)


def test_energy_route_rejects_positive_energy():
    with pytest.raises(ValueError):
        concurrence_xxx_energy(np.array([4.0]), 1.0)  # u_bar/j far outside [-3, 3]
    with pytest.raises(ValueError):
        concurrence_xxx_energy(np.array([-1.0]), 0.0)


def test_ground_state_route_two_site():
    # the isotropic energy route fed the ground energy per site: the T = 0
    # limit of the thermal route on an even antiferromagnetic ring
    spec, sd = cached_decompose(2, 1.0)
    assert concurrence_xxx_energy(np.array([sd.ground_energy / 2]), 1.0).tolist() == [1.0]
    zero = thermo_grid(sd, [0.0])
    c = concurrence_wootters(pair_rdms(zero, 1, 2)).wootters[0]
    assert abs(c - 1.0) <= 1e-12


def test_ground_state_route_matches_thermal_limit():
    spec, sd = cached_decompose(4, 1.0)
    c_gs = concurrence_xxx_energy(np.array([sd.ground_energy / 4]), 1.0)[0]
    grid = thermo_grid(sd, [1e-6, 0.0])
    c_thermal = concurrence_xxx_energy(grid.u / 4, 1.0)[0]
    assert abs(c_gs - c_thermal) <= 1e-6
    c_w = concurrence_wootters(pair_rdms(grid, 1, 2)).wootters[1]
    assert abs(c_gs - c_w) <= 1e-9


def test_ground_state_route_matches_wootters():
    spec, sd = cached_decompose(6, 1.0)
    c_gs = concurrence_xxx_energy(np.array([sd.ground_energy / 6]), 1.0)[0]
    zero = thermo_grid(sd, [0.0])
    c_w = concurrence_wootters(pair_rdms(zero, 1, 2)).wootters[0]
    assert abs(c_gs - c_w) <= 1e-9


def test_anisotropic_route_reduces_to_correlation_form():
    spec, sd = cached_decompose(4, 1.0)
    grid = thermo_grid(sd, [0.8])
    cs = correlations_from_rdm(pair_rdms(grid, 1, 2))
    c_a = concurrence_anisotropic(grid.u / 4, 1.0, 1.0, cs.g[:, 2, 2])
    c_g = concurrence_from_correlations(cs)
    assert abs(c_a[0] - c_g[0]) <= 1e-12


@pytest.mark.parametrize("n,delta,t", [(4, 0.0, 0.5), (6, 2.0, 1.0), (4, 0.5, 0.3)])
def test_anisotropic_route_agrees_with_wootters(n, delta, t):
    spec, sd = cached_decompose(n, 1.0, delta)
    grid = thermo_grid(sd, [t])
    rdm = pair_rdms(grid, 1, 2)
    cs = correlations_from_rdm(rdm)
    c = concurrence_anisotropic(grid.u / n, 1.0, delta, cs.g[:, 2, 2])
    assert abs(c[0] - concurrence_wootters(rdm).wootters[0]) <= 1e-9


def test_field_route_reduces_at_zero_field():
    spec, sd = cached_decompose(4, 1.0)
    grid = thermo_grid(sd, [0.6])
    rdm = pair_rdms(grid, 1, 2)
    assert abs(concurrence_xxx_field(rdm, grid.u / 4, 1.0, 0.0)[0]
               - concurrence_x_form(rdm)[0]) <= 1e-10


@pytest.mark.parametrize("n,b,t", [(4, 0.5, 0.5), (2, 3.0, 0.1), (6, 1.0, 1.0)])
def test_field_route_agrees_with_wootters(n, b, t):
    spec, sd = cached_decompose(n, 1.0, 1.0, b)
    grid = thermo_grid(sd, [t])
    rdm = pair_rdms(grid, 1, 2)
    c = concurrence_xxx_field(rdm, grid.u / n, 1.0, b)
    assert abs(c[0] - concurrence_wootters(rdm).wootters[0]) <= 1e-9


def test_field_route_flags_convention_mismatch():
    spec, sd = cached_decompose(4, 1.0, 1.0, 2.0)
    rdm = pair_rdms(thermo_grid(sd, [0.3]), 1, 2)
    assert abs(rdm.m_bar[0]) > 1e-3
    # an energy input that zeroes the squared bracket leaves the argument
    # at -4*m_bar^2 < 0, which must be surfaced rather than clamped
    u_bad = 4.0 * rdm.z.real - 1.0 + 2.0 * rdm.m_bar
    with pytest.raises(ValueError, match="convention"):
        concurrence_xxx_field(rdm, u_bad, 1.0, 2.0)


def test_clamping():
    c = clamp_concurrence(np.array([5e-13, -5e-13, 1.0 + 1e-9, 0.5]))
    assert isinstance(c, np.ndarray)
    assert c.tolist() == [0.0, 0.0, 1.0, 0.5]


def test_report_route_presence():
    # isotropic zero field: all four routes
    spec, sd = cached_decompose(4, 1.0)
    grid = thermo_grid(sd, [0.5])
    rdm = pair_rdms(grid, 1, 2)
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / 4)
    assert not np.isnan([rep.x_form, rep.correlation_form, rep.energy_form]).any()
    assert rep.max_disagreement[0] <= 1e-9

    # field on: correlation route must be absent
    spec, sd = cached_decompose(4, 1.0, 1.0, 0.5)
    grid = thermo_grid(sd, [0.5])
    rdm = pair_rdms(grid, 1, 2)
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / 4)
    assert np.isnan(rep.correlation_form[0])
    assert not np.isnan(rep.energy_form[0])

    # zero coupling: no energy-family route
    spec, sd = cached_decompose(4, 0.0, 1.0, 1.0)
    grid = thermo_grid(sd, [0.5])
    rdm = pair_rdms(grid, 1, 2)
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / 4)
    assert np.isnan(rep.energy_form[0])


@pytest.mark.parametrize("n, pair, bond", [
    (8, (1, 3), False), (8, (4, 8), False), (8, (2, 1), True), (8, (8, 1), True),
    (2, (1, 2), True),
])
def test_energy_route_only_on_ring_bonds(n, pair, bond):
    # the closed forms hold for nearest neighbours; on (1, 3) the isotropic
    # route read 0.41 at T = 0.1 where Wootters reads 0
    spec, sd = cached_decompose(n, 1.0)
    grid = thermo_grid(sd, [0.1])
    rdm = pair_rdms(grid, *pair)
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / n)
    assert (not np.isnan(rep.energy_form[0])) == bond
    assert rep.max_disagreement[0] <= 1e-9
    columns = run_sweep(spec, [0.1], pair)
    assert (columns["C_energy"][0] is not None) == bond
    assert columns["max_route_disagreement"][0] <= 1e-9


def test_report_excludes_correlation_route_for_corner_coupled_states():
    # jx = -jy couples |00> <-> |11>: entanglement lives in the corner
    # channel, invisible to the correlation tensor shortcut
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = 1.0
    spec = ModelSpec.general(m, -m, 0.0 * m)
    from heisenring.oracle import build_hamiltonian, diagonalize_full, gibbs_state, reduce_to_pair
    sd = diagonalize_full(build_hamiltonian(spec))
    rdm = reduce_to_pair(gibbs_state(sd, 0.2)[None], 1, 2)
    assert abs(rdm.matrix[0, 0, 3]) > 0.1  # corner really is populated
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, u_bar=np.array([0.0]))
    assert np.isnan(rep.correlation_form[0])
    assert np.isnan(rep.x_form[0])
    assert rep.wootters[0] > 0.9  # nearly a Bell state at low temperature


def test_report_general_coupling_has_no_energy_route():
    m = np.zeros((4, 4))
    for i in range(4):
        m[i, (i + 1) % 4] = m[(i + 1) % 4, i] = 0.5
    spec = ModelSpec.general(m, m, m)
    from heisenring import decompose
    sd = decompose(spec)
    grid = thermo_grid(sd, [0.5])
    rdm = pair_rdms(grid, 1, 2)
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / 4)
    assert np.isnan(rep.energy_form[0])
    assert not np.isnan(rep.x_form[0])
    assert rep.max_disagreement[0] <= 1e-9


def test_concurrence_range():
    for args in [(2, 1.0, 1.0, 0.0), (5, 1.0, 0.5, 0.5), (6, -1.0, 2.0, 0.0)]:
        spec, sd = cached_decompose(*args)
        grid = thermo_grid(sd, [0.0, 0.3, 2.0])
        c = concurrence_wootters(pair_rdms(grid, 1, 2)).wootters
        assert np.all((0.0 <= c) & (c <= 1.0))


def _non_psd():
    return np.diag([0.5, 0.3, 0.201, -0.001]).astype(complex)


def _imaginary():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 3] = 0.1j
    return m


def _stack_around(bad):
    # the offending state sits between two valid ones
    return np.stack([np.eye(4, dtype=complex) / 4.0, bad, SINGLET_RHO])


@pytest.mark.parametrize("bad, run", [
    (_non_psd(), concurrence_wootters),
    (_imaginary(), correlations_from_rdm),
])
def test_stack_with_one_bad_state_raises_as_single_state(bad, run):
    with pytest.raises(ValueError) as single:
        run(_rdm(bad))
    with pytest.raises(ValueError) as stacked:
        run(TwoQubitRDM.from_matrix(_stack_around(bad), (1, 2)))
    assert str(stacked.value) == str(single.value)


def test_stacked_energy_checks_raise_as_single_state():
    # one u_bar outside the thermal domain among valid ones
    with pytest.raises(ValueError) as single:
        concurrence_xxx_energy(np.array([4.0]), 1.0)
    with pytest.raises(ValueError) as stacked:
        concurrence_xxx_energy(np.array([-0.5, 4.0, -1.0]), 1.0)
    assert str(stacked.value) == str(single.value)
    # a field-route square-root argument below -1e-10 in one row
    rdm = _rdm(np.diag([0.7, 0.1, 0.1, 0.1]))
    with pytest.raises(ValueError) as single:
        concurrence_xxx_field(rdm, np.array([0.0]), 1.0, 0.0)
    stack = _rdm(np.eye(4) / 4.0, rdm.matrix[0])
    with pytest.raises(ValueError) as stacked:
        concurrence_xxx_field(stack, np.array([-0.25, 0.0]), 1.0, 0.0)
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("route", [
    lambda u_bar: concurrence_xxx_energy(u_bar, 1.0),
    lambda u_bar: concurrence_anisotropic(u_bar, 1.0, 0.5, np.zeros(1)),
    lambda u_bar: concurrence_xxx_field(_rdm(np.eye(4) / 4.0), u_bar, 1.0, 0.3),
], ids=["xxx_energy", "anisotropic", "xxx_field"])
def test_energy_route_refuses_a_bare_scalar(route):
    # a scalar came back as a 0-d array, or failed with an IndexError
    # instead of naming the stack the route needs
    for u_bar in (-0.5, 4.0, np.array(-0.5), np.full((1, 1), -0.5)):
        with pytest.raises(ValueError, match=r"u_bar must be an \(R,\) array"):
            route(u_bar)
    assert route(np.array([-0.5])).shape == (1,)


@pytest.mark.parametrize("n, j, delta, b, absent", [
    (4, 1.0, 1.0, 0.0, ()),
    (4, 1.0, 1.0, 0.5, ("correlation_form",)),
    (4, 1.0, 0.5, 0.5, ("correlation_form", "energy_form")),
])
def test_grid_of_one_gives_one_row_arrays(n, j, delta, b, absent):
    # one temperature is a stack of one: every field an (R,) float array,
    # an absent route NaN in its row
    spec, sd = cached_decompose(n, j, delta, b)
    grid = thermo_grid(sd, [0.5])
    rdm = pair_rdms(grid, 1, 2)
    rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / n)
    for name in ("wootters", "x_form", "correlation_form", "energy_form", "max_disagreement"):
        value = getattr(rep, name)
        assert isinstance(value, np.ndarray) and value.dtype == np.float64, name
        assert value.shape == (1,), name
        assert np.isnan(value[0]) == (name in absent), name
    assert rep.lambdas.shape == (1, 4)
    assert rep.max_disagreement[0] <= 1e-9
    # the Wootters route alone marks every other route absent, with no spread
    alone = concurrence_wootters(rdm)
    assert np.isnan([alone.x_form, alone.correlation_form, alone.energy_form]).all()
    assert alone.max_disagreement.tolist() == [0.0]
