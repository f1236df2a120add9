"""Property tests of the pair-table route over random general couplings,
of the concurrence routes and the Bell measure on S_z-breaking couplings,
of operator embedding over random sites, of the momentum blocks over
random uniform rings, and of the batched sweep against the single-state
chain."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heisenring import (
    COLUMNS,
    ModelSpec,
    concurrence_report,
    correlations_from_rdm,
    decompose,
    pair_rdms,
    run_sweep,
    thermo_grid,
    violation_measure,
)
from heisenring.bell import TSIRELSON
from heisenring.entanglement import X_FORM_TOL
from heisenring.oracle import (
    build_hamiltonian,
    diagonalize_full,
    embed,
    frame_expectations,
    gibbs_state,
    random_frames,
    reduce_to_pair,
)
from heisenring.sweep import sweep_decomposition
from helpers import kron_hamiltonian, kron_sites

coupling = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
temperature = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=20.0))


@st.composite
def general_specs(draw, sz_breaking_only=False):
    # jy = jx (S_z conserved) or an independent jy; only the latter, with
    # jy != jx, when sz_breaking_only
    n = draw(st.integers(min_value=2, max_value=6))

    def symmetric():
        values = draw(st.lists(coupling, min_size=n * n, max_size=n * n))
        m = np.triu(np.reshape(values, (n, n)), 1)
        return m + m.T

    jx, jz = symmetric(), symmetric()
    if sz_breaking_only or not draw(st.booleans()):
        jy = symmetric()
        assume(not (sz_breaking_only and np.array_equal(jx, jy)))
    else:
        jy = jx.copy()
    spec = ModelSpec.general(jx, jy, jz, field_b=draw(coupling))
    pair = draw(st.lists(st.integers(min_value=1, max_value=n),
                         min_size=2, max_size=2, unique=True))
    return spec, tuple(pair)


@given(general_specs(), temperature)
def test_table_route_matches_dense_gibbs(case, t):
    spec, (i, j) = case
    sd = decompose(spec)
    grid = thermo_grid(sd, [t])
    rdm = pair_rdms(grid, i, j).matrix[0]
    rho = gibbs_state(diagonalize_full(build_hamiltonian(spec)), t)
    oracle = reduce_to_pair(rho[None], i, j).matrix[0]
    assert np.max(np.abs(rdm - oracle)) <= 1e-12
    # M, from the labels or (S_z broken) the eigenvectors, is tr(rho sum_i sigma_iz)
    sum_sz = spec.n_sites - 2.0 * np.bitwise_count(np.arange(spec.dim)).astype(np.int64)
    assert abs(grid.m[0] - np.diagonal(rho).real @ sum_sz) <= 1e-12
    assert abs(np.trace(rdm) - 1.0) <= 1e-12
    assert np.max(np.abs(rdm - rdm.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rdm).min() >= -1e-12


# seeded once: the same frames probe every drawn state
FRAMES = random_frames(2000, 20260811)


@given(general_specs(sz_breaking_only=True), temperature)
def test_sz_breaking_routes_and_bell_bounds(case, t):
    # jx != jy: the X-form and correlation routes stand only where the RDM
    # keeps the S_z pattern, and no energy route applies to general specs
    spec, (i, j) = case
    sd = decompose(spec)
    grid = thermo_grid(sd, [t])
    rdm = pair_rdms(grid, i, j)
    cs = correlations_from_rdm(rdm)
    report = concurrence_report(rdm, cs, spec, grid.u / spec.n_sites)
    if rdm.off_structure_norm[0] > X_FORM_TOL:
        assert np.isnan(report.x_form[0]) and np.isnan(report.correlation_form[0])
    else:
        assert not np.isnan(report.x_form[0])
    assert np.isnan(report.energy_form[0])
    # no seeded CHSH frame beats the Horodecki measure, which stays within
    # Tsirelson's bound
    measure = violation_measure(cs.g).measure[0]
    assert float(np.max(np.abs(frame_expectations(cs.g[0], FRAMES)))) <= measure + 1e-8
    assert measure <= TSIRELSON + 1e-10


@given(general_specs())
def test_general_hamiltonian_equals_kron_reference(case):
    # jx != jy in about half the examples
    spec, _ = case
    assert np.array_equal(build_hamiltonian(spec), kron_hamiltonian(spec))


@st.composite
def embed_cases(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=1, max_value=min(3, n)))
    sites = tuple(draw(st.permutations(range(1, n + 1)))[:k])
    dim = 1 << k
    entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    op = np.reshape(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)),
                    (dim, dim))
    return op, sites, n


@given(embed_cases())
def test_embed_of_random_operator_matches_per_site_kron(case):
    # op is the sum over its entries of op[a, b] times one product of
    # per-site matrix units |a_t><b_t|, where a_t is bit t of a counted from
    # the top, so the first tensor factor of op lands on the first site listed
    op, sites, n = case
    k, unit = len(sites), np.eye(2)

    def bit(a, t):
        return (a >> (k - 1 - t)) & 1

    expected = sum(op[a, b] * kron_sites({s: np.outer(unit[bit(a, t)], unit[bit(b, t)])
                                          for t, s in enumerate(sites)}, n)
                   for a in range(1 << k) for b in range(1 << k))
    assert np.array_equal(embed(op, sites, n), expected)


@st.composite
def uniform_specs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    return ModelSpec.uniform(n, draw(coupling), draw(coupling), draw(coupling))


@settings(max_examples=40)
@given(uniform_specs())
def test_momentum_blocks_match_sector_spectrum(spec):
    # values-only decomposition of a uniform ring runs on momentum blocks;
    # the S_z-sector eigh is the oracle, label by label
    momentum = decompose(spec, vectors=False)
    sector = decompose(spec)
    n = spec.n_sites
    for k in range(n + 1):
        label = (n - 2 * k) / 2.0
        a = momentum.eigenvalues[momentum.sector_labels == label]
        b = sector.eigenvalues[sector.sector_labels == label]
        assert a.size == b.size == math.comb(n, k)
        assert np.max(np.abs(a - b)) <= 1e-10
    assert momentum.ground_degeneracy == sector.ground_degeneracy


def _single_state_row(sd, spec, t, pair):
    """The sweep's columns at one temperature, from a grid of one; an absent route is None."""
    grid = thermo_grid(sd, [t])
    u_per_site = grid.u / spec.n_sites
    rdm = pair_rdms(grid, *pair)
    cs = correlations_from_rdm(rdm)
    report = concurrence_report(rdm, cs, spec, u_per_site)
    bell = violation_measure(cs.g)
    stacks = {
        "T": grid.temperature, "log_z": grid.log_z, "U": grid.u,
        "U_per_site": u_per_site, "M": grid.m,
        "G_xx": cs.g[:, 0, 0], "G_yy": cs.g[:, 1, 1], "G_zz": cs.g[:, 2, 2],
        "u_plus": rdm.u_plus, "u_minus": rdm.u_minus, "z_re": rdm.z.real, "z_im": rdm.z.imag,
        "C_wootters": report.wootters, "C_x_form": report.x_form,
        "C_correlation": report.correlation_form, "C_energy": report.energy_form,
        "bell_measure": bell.measure, "bell_violates": bell.violates,
        "max_route_disagreement": report.max_disagreement,
    }
    assert all(stack.shape == (1,) for stack in stacks.values())
    row = {name: stack.tolist()[0] for name, stack in stacks.items()}
    for name in ("C_x_form", "C_correlation", "C_energy"):
        if math.isnan(row[name]):
            row[name] = None
    return row


def _bits(v):
    """None, a bool, or the float's hex, which tells -0.0, inf and nan apart."""
    return v if v is None or isinstance(v, bool) else float(v).hex()


def _assert_columns_match_single_states(spec, temps, pair):
    # the reference chain reads the decomposition the sweep itself takes
    sd = sweep_decomposition(spec, pair)
    columns = run_sweep(spec, np.array(temps), pair)
    assert list(columns) == list(COLUMNS)
    for r, t in enumerate(temps):
        expected = _single_state_row(sd, spec, t, pair)
        for name in COLUMNS:
            assert _bits(columns[name][r]) == _bits(expected[name]), (name, t)


# every grid holds T = 0, the uniform ground-level mixture
grids = st.lists(st.floats(min_value=1e-4, max_value=50.0), max_size=6).map(
    lambda ts: [0.0] + ts)


@st.composite
def uniform_sweeps(draw):
    # the four energy-route regimes: isotropic, zero-field anisotropic,
    # isotropic in a field, and anisotropic in a field (no energy route)
    n = draw(st.integers(min_value=2, max_value=8))
    anisotropic, in_field = draw(st.booleans()), draw(st.booleans())
    delta = draw(coupling.filter(lambda d: d != 1.0)) if anisotropic else 1.0
    b = draw(coupling.filter(lambda x: x != 0.0)) if in_field else 0.0
    spec = ModelSpec.uniform(n, draw(coupling), delta, b)
    pair = draw(st.lists(st.integers(min_value=1, max_value=n),
                         min_size=2, max_size=2, unique=True))
    return spec, tuple(pair)


@given(uniform_sweeps(), grids)
def test_sweep_columns_match_single_state_chain_uniform(case, temps):
    spec, pair = case
    _assert_columns_match_single_states(spec, temps, pair)


@settings(max_examples=30)
@given(general_specs(), grids)
def test_sweep_columns_match_single_state_chain_general(case, temps):
    # S_z-breaking couplings (jx != jy) in about half the examples
    spec, pair = case
    _assert_columns_match_single_states(spec, temps, pair)
