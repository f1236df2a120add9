"""Two- and three-site isotropic rings, end to end against their closed forms.

The two smallest rings are fully solvable by hand: the two-site ring has
spectrum {-6J, 2J x3} (the periodic sum counts its single bond twice), so

    Z = 3 exp(-2 beta J) + exp(6 beta J)
    U = 6J (exp(-2 beta J) - exp(6 beta J)) / Z
    C = max{0, (exp(8 beta J) - 3) / (exp(8 beta J) + 3)}

and the three-site ring has Z = 8 cosh(3 beta J), U = -3J tanh(3 beta J)
and no pairwise entanglement at any temperature.  This script recomputes
everything numerically and prints the worst deviations.
"""

import math

import numpy as np

from heisenring import (
    ModelSpec,
    concurrence_report,
    concurrence_wootters,
    correlations_from_rdm,
    decompose,
    pair_rdms,
    thermo_grid,
)

temps = np.geomspace(0.1, 50.0, 12)

print("=== two-site ring, J = 1 ===")
spec = ModelSpec.uniform(2, 1.0)
sd = decompose(spec)
print(f"spectrum: {np.round(sd.eigenvalues, 12)}")
print(f"{'T':>8} {'U':>12} {'U exact':>12} {'C':>10} {'C exact':>10}")
# the whole temperature grid as one stack
grid = thermo_grid(sd, temps)
cs = concurrence_wootters(pair_rdms(grid, 1, 2)).wootters
worst_u = worst_c = 0.0
for t, u, c in zip(temps, grid.u, cs):
    beta = 1.0 / t
    r = 3.0 * math.exp(-8.0 * beta)
    u_exact = 6.0 * (r / 3.0 - 1.0) / (r + 1.0)
    c_exact = max(0.0, (1.0 - r) / (1.0 + r))
    worst_u = max(worst_u, abs(u - u_exact))
    worst_c = max(worst_c, abs(c - c_exact))
    print(f"{t:8.3f} {u:12.6f} {u_exact:12.6f} {c:10.6f} {c_exact:10.6f}")
print(f"worst |U - exact| = {worst_u:.2e},  worst |C - exact| = {worst_c:.2e}")

print("\n=== three-site ring, J = 1 ===")
spec = ModelSpec.uniform(3, 1.0)
sd = decompose(spec)
print(f"spectrum: {np.round(sd.eigenvalues, 12)}  (4-fold +-3J)")
print(f"{'T':>8} {'U':>12} {'-3tanh(3/T)':>12} {'C (all routes)':>15}")
grid = thermo_grid(sd, temps[:8])
rdm = pair_rdms(grid, 1, 2)
rep = concurrence_report(rdm, correlations_from_rdm(rdm), spec, grid.u / spec.n_sites)
for r, (t, u) in enumerate(zip(grid.temperature, grid.u)):
    routes = {float(route[r]) for route in (rep.wootters, rep.x_form,
                                            rep.correlation_form, rep.energy_form)}
    print(f"{t:8.3f} {u:12.6f} {-3.0 * math.tanh(3.0 / t):12.6f} {sorted(routes)!s:>15}")
print("three-site rings are never pairwise entangled, by every route")
