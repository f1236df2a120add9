"""Property tests of the pair-table route over random general couplings."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from heisenring import (
    ModelSpec,
    build_hamiltonian,
    decompose,
    diagonalize_full,
    gibbs_state,
    pair_rdm_thermal,
    reduce_to_pair,
)
from helpers import kron_hamiltonian

coupling = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
temperature = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=20.0))


@st.composite
def general_specs(draw):
    n = draw(st.integers(min_value=2, max_value=6))

    def symmetric():
        values = draw(st.lists(coupling, min_size=n * n, max_size=n * n))
        m = np.triu(np.reshape(values, (n, n)), 1)
        return m + m.T

    jx, jz = symmetric(), symmetric()
    jy = jx.copy() if draw(st.booleans()) else symmetric()
    spec = ModelSpec.general(jx, jy, jz, field_b=draw(coupling))
    pair = draw(st.lists(st.integers(min_value=1, max_value=n),
                         min_size=2, max_size=2, unique=True))
    return spec, tuple(pair)


@given(general_specs(), temperature)
def test_table_route_matches_dense_gibbs(case, t):
    spec, (i, j) = case
    rdm = pair_rdm_thermal(decompose(spec), t, i, j).matrix
    oracle = reduce_to_pair(gibbs_state(diagonalize_full(build_hamiltonian(spec)), t),
                            i, j).matrix
    assert np.max(np.abs(rdm - oracle)) <= 1e-12
    assert abs(np.trace(rdm) - 1.0) <= 1e-12
    assert np.max(np.abs(rdm - rdm.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rdm).min() >= -1e-12


@given(general_specs())
def test_general_hamiltonian_equals_kron_reference(case):
    # jx != jy in about half the examples
    spec, _ = case
    assert np.array_equal(build_hamiltonian(spec), kron_hamiltonian(spec))
