import math
import sys

import pytest

from heisenring import (
    ModelSpec,
    concurrence_wootters,
    find_threshold,
    pair_rdms,
    thermo_grid,
    u_of_n_scan,
)
from heisenring import threshold
from heisenring.threshold import STATUS_FOUND, STATUS_NEVER, require_afm_xxx
from helpers import cached_decompose


def test_two_site_threshold():
    res = find_threshold(ModelSpec.uniform(2, 1.0))
    assert res.status == STATUS_FOUND
    assert abs(res.t_c - 8.0 / math.log(3.0)) <= 1e-6
    assert abs(res.u_of_n - 1.0) <= 1e-7
    assert res.iterations > 0
    assert res.bracket[0] < res.t_c < res.bracket[1]


def test_threshold_scales_linearly_in_j():
    t1 = find_threshold(ModelSpec.uniform(2, 1.0)).t_c
    t2 = find_threshold(ModelSpec.uniform(2, 2.0)).t_c
    assert abs(t2 - 16.0 / math.log(3.0)) <= 2e-6
    assert abs(t2 - 2.0 * t1) <= 1e-6 * 2.0 * t1


@pytest.mark.parametrize("n", [2, 4])
def test_threshold_independent_of_j_scale(n):
    # the search runs in units of J: t_c / J does not move with J's scale
    ref = find_threshold(ModelSpec.uniform(n, 1.0))
    # down to the smallest normal J, where the bisection width 1e-8 J is
    # still a normal float
    for j in (sys.float_info.min, 2.3e-308, 1e-307, 1e-12, 1e-10, 1e-7, 1e-5, 0.73, 1.0,
              1e5, 1e7):
        res = find_threshold(ModelSpec.uniform(n, j))
        assert res.status == STATUS_FOUND
        assert abs(res.t_c / j - ref.t_c) <= 1e-9 * ref.t_c
        assert abs(res.u_of_n - 1.0) <= 1e-7


def test_three_site_never_entangled():
    res = find_threshold(ModelSpec.uniform(3, 1.0))
    assert res.status == STATUS_NEVER
    assert res.t_c is None


@pytest.mark.parametrize("n", [2, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_threshold_two_sided_concurrence(n):
    # the search reads only eigenvalues; Wootters on the eigenvectors'
    # pair state checks that the concurrence vanishes exactly at t_c
    spec, sd = cached_decompose(n, 1.0)
    res = find_threshold(spec)
    assert res.status == STATUS_FOUND
    assert abs(res.u_of_n - 1.0) <= 1e-7
    near = thermo_grid(sd, [res.t_c * (1 - 1e-3), res.t_c * (1 + 1e-3)])
    below, above = concurrence_wootters(pair_rdms(near, 1, 2)).wootters
    assert below > 0.0
    assert above == 0.0


def test_threshold_bitwise_deterministic():
    spec = ModelSpec.uniform(5, 1.0)
    a = find_threshold(spec)
    b = find_threshold(spec)
    assert a.t_c == b.t_c
    assert a.iterations == b.iterations


REFUSED_SPECS = [(ModelSpec.uniform(4, -1.0), "ferromagnetic"),
                 (ModelSpec.uniform(4, 1.0, 0.5), "isotropic"),
                 (ModelSpec.uniform(4, 1.0, 1.0, 0.5), "isotropic")]


def test_threshold_rejections():
    for spec, message in REFUSED_SPECS:
        with pytest.raises(ValueError, match=message):
            find_threshold(spec)
    # a subnormal J's bisection width 1e-8 J underflows, and the search
    # never ended
    for j in (5e-324, 1e-320, 1e-316, sys.float_info.min / 2):
        with pytest.raises(ValueError, match="subnormal"):
            require_afm_xxx(ModelSpec.uniform(4, j))


@pytest.mark.parametrize("spec,message", REFUSED_SPECS,
                         ids=["ferromagnetic", "anisotropic", "field"])
def test_threshold_refuses_before_decompose(monkeypatch, spec, message):
    # find_threshold decomposes the spec itself, only after refusing it
    def never(*args, **kwargs):
        raise AssertionError("decompose ran")
    monkeypatch.setattr(threshold, "decompose", never)
    with pytest.raises(ValueError, match=message):
        find_threshold(spec)


def test_u_of_n_ground_state_values():
    scan = u_of_n_scan([2, 3, 4, 5, 6, 8], 1.0, 0.0)
    # the two-site value reflects the twice-counted bond
    assert abs(scan[2] - 3.0) <= 1e-9
    # exactly marginal: -E0/(3J) = 1, consistent with zero concurrence
    assert abs(scan[3] - 1.0) <= 1e-9
    assert scan[5] > 1.0
    # even branch from N = 4 on: non-increasing
    assert scan[4] >= scan[6] >= scan[8]
    # odd branch: non-decreasing
    assert scan[3] <= scan[5]


def test_threshold_n14_pinned():
    # above N = 12 the threshold runs values-only, on momentum blocks
    spec = ModelSpec.uniform(14, 1.0)
    res = find_threshold(spec)
    assert res.status == STATUS_FOUND
    assert abs(res.t_c - 3.1804914921522141) <= 1e-7
    assert abs(res.u_of_n - 1.0) <= 1e-7


def test_u_of_n_even_odd_monotone_up_to_n14():
    scan = u_of_n_scan(range(3, 15), 1.0, 0.0)
    even = [scan[n] for n in range(4, 15, 2)]
    odd = [scan[n] for n in range(3, 14, 2)]
    assert all(a > b for a, b in zip(even, even[1:])), even
    assert all(a < b for a, b in zip(odd, odd[1:])), odd


def test_u_of_n_rejects_ferromagnet():
    with pytest.raises(ValueError):
        u_of_n_scan([2, 4], -1.0, 0.0)


def test_u_of_n_finite_temperature():
    scan0 = u_of_n_scan([4, 6], 1.0, 0.0)
    scan1 = u_of_n_scan([4, 6], 1.0, 1.0)
    for n in (4, 6):
        assert 0.0 < scan1[n] < scan0[n]


def test_entangled_exactly_up_to_threshold():
    spec, sd = cached_decompose(4, 1.0)
    res = find_threshold(spec)
    # energy-route concurrence is positive strictly below and zero above
    from heisenring import concurrence_xxx_energy
    u = thermo_grid(sd, [res.t_c * 0.9, res.t_c * 1.1]).u
    c_lo, c_hi = concurrence_xxx_energy(u / 4, 1.0)
    assert c_lo > 0.0
    assert c_hi == 0.0
