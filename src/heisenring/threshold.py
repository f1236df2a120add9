"""Threshold temperature of pairwise thermal entanglement on isotropic rings.

Above some T_c the nearest-neighbour concurrence of an antiferromagnetic
isotropic ring is exactly zero; T_c solves U(T_c)/(-N J) = 1.  The root is
found by bisecting f(T) = -U(T)/(N J) - 1, which is a clean sign change
(monotone, because U is non-decreasing in T), rather than the clamped
concurrence whose one-sided zero stalls bisection.  The search runs in
units of J: its floor, start, ceiling and width scale with J, so t_c/J
does not depend on J's scale; a subnormal J, whose width 1e-8 J would
underflow, is refused.  Each probe is the one row of a thermo_grid.
find_threshold refuses a spec before it decomposes it, values-only; the
Wootters concurrence on both sides of t_c is checked by verify
(threshold_two_sided) and the tests.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .entanglement import CLAMP_TOL, concurrence_xxx_energy
from .model import ModelSpec
from .spectral import decompose
from .thermo import thermo_grid

STATUS_FOUND = "found"
STATUS_NEVER = "never_entangled"
STATUS_EVERYWHERE = "entangled_everywhere_in_range"

# search range in units of J
_T_FLOOR = 1e-6
_T_CEILING = 1e6


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of the threshold search."""

    status: str
    t_c: float | None
    bracket: tuple[float, float]
    iterations: int
    u_of_n: float | None


def require_afm_xxx(spec: ModelSpec) -> None:
    """Refuse a spec the threshold search does not cover.

    That is a non-uniform, anisotropic, field-carrying or ferromagnetic
    spec, or one whose J is subnormal.  Cheap, so find_threshold runs it
    before any diagonalisation.
    """
    if not spec.is_uniform or spec.coupling.delta != 1.0 or spec.field_b != 0.0:
        raise ValueError(
            "threshold search is defined for the isotropic zero-field model "
            "(uniform coupling, delta = 1, B = 0)"
        )
    if spec.coupling.j <= 0.0:
        raise ValueError(
            "ferromagnetic rings (j <= 0) are never pairwise entangled; "
            "no threshold exists"
        )
    if spec.coupling.j < sys.float_info.min:
        raise ValueError(
            f"j = {spec.coupling.j!r} is subnormal; the search scales with J "
            f"and needs j >= {sys.float_info.min!r}"
        )


def find_threshold(spec: ModelSpec) -> ThresholdResult:
    """Bisect for the temperature where the concurrence vanishes.

    Returns never_entangled when the T -> 0 concurrence is already zero
    (e.g. three-site rings), and entangled_everywhere_in_range when f stays
    positive up to the ceiling.  Only eigenvalues are used.
    """
    require_afm_xxx(spec)
    sd = decompose(spec, vectors=False)
    n, j = spec.n_sites, spec.coupling.j

    def f(t: float) -> float:
        return -thermo_grid(sd, [t]).u[0] / (n * j) - 1.0

    floor = _T_FLOOR * j
    if concurrence_xxx_energy(thermo_grid(sd, [floor]).u / n, j)[0] <= CLAMP_TOL:
        return ThresholdResult(STATUS_NEVER, None, (floor, floor), 0, None)

    lo, hi = floor, j
    while f(hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > _T_CEILING * j:
            return ThresholdResult(STATUS_EVERYWHERE, None, (lo, hi), 0, None)
    bracket = (lo, hi)

    iterations = 0
    while hi - lo > 1e-8 * max(j, 0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        iterations += 1
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_c = 0.5 * (lo + hi)
    u_of_n = thermo_grid(sd, [t_c]).u[0] / (-n * j)
    return ThresholdResult(STATUS_FOUND, float(t_c), bracket, iterations, float(u_of_n))


def u_of_n_scan(n_list: list[int], j: float, t: float) -> dict[int, float]:
    """u(N) = U(T)/(-N j) for each ring size; at T = 0 this is -E0/(N j).

    Probes the even/odd monotonicity conjecture numerically.  The N = 2
    value reflects the twice-counted bond (u(2) = 3 at T = 0), so even-branch
    monotonicity comparisons should start at N = 4.
    """
    if j <= 0.0:
        raise ValueError("u(N) scan is defined for antiferromagnetic j > 0")
    out: dict[int, float] = {}
    for n in n_list:
        sd = decompose(ModelSpec.uniform(n, j), vectors=False)
        out[n] = float(thermo_grid(sd, [t]).u[0] / (-n * j))
    return out
