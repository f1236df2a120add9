"""CHSH violation of thermal ring states, exact maximum vs random frames.

The Horodecki construction gives the maximal CHSH expectation of a
two-qubit state directly from its correlation matrix: 2 sqrt(u + u~) with
u, u~ the top eigenvalues of T T^t.  On isotropic rings this collapses to
2 sqrt(2) |U/(3JN)|: one thermodynamic number decides both entanglement
and nonlocality.  Violation (measure > 2) is strictly stronger than
entanglement: between 2 sqrt(2)/3 and 2 the state is entangled but no
CHSH frame can show it.  Every Bell function reads the state only through
its 3x3 correlation tensor T, computed once per state here: the measure
takes the whole stack of tensors, a frame one tensor.  The frame tools
are reference routes and come from heisenring.oracle.
"""

import math

from heisenring import (
    ModelSpec,
    concurrence_wootters,
    correlations_from_rdm,
    decompose,
    pair_rdms,
    thermo_grid,
    violation_measure,
    violation_xxx,
)
from heisenring.oracle import chsh_expectation, optimal_frame, random_frame_search

spec = ModelSpec.uniform(2, 1.0)
sd = decompose(spec)

print("=== two-site antiferromagnetic ring ===")
print(f"{'T':>7} {'measure':>9} {'closed':>9} {'violates':>9} "
      f"{'C':>9} {'best of 2000 frames':>20}")
# one stack over the temperatures; the random-frame search takes one state
grid = thermo_grid(sd, [0.2, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0])
rdm = pair_rdms(grid, 1, 2)
gs = correlations_from_rdm(rdm).g
res = violation_measure(gs)
closed = violation_xxx(grid.u, 1.0, 2)
cs = concurrence_wootters(rdm).wootters
for r, t in enumerate(grid.temperature):
    sampled = random_frame_search(gs[r], 2000, seed=42)
    print(f"{t:7.2f} {res.measure[r]:9.5f} {closed[r]:9.5f} {res.violates[r]!s:>9} "
          f"{cs[r]:9.5f} {sampled:20.5f}")

print(f"\nquantum ceiling 2*sqrt(2) = {2 * math.sqrt(2):.5f}; classical bound 2")
print("entangled-but-not-violating window: measure in (2*sqrt(2)/3, 2] "
      f"= ({2 * math.sqrt(2) / 3:.5f}, 2]")

print("\n=== the analytic optimal frame attains the measure exactly ===")
grid = thermo_grid(sd, [0.5, 4.0, 9.0])
gs = correlations_from_rdm(pair_rdms(grid, 1, 2)).g
for t, g, measure in zip(grid.temperature, gs, violation_measure(gs).measure):
    attained = abs(chsh_expectation(g, optimal_frame(g)))
    print(f"T={t:5.2f}: measure {measure:.12f}  frame value {attained:.12f}  "
          f"diff {abs(measure - attained):.1e}")

print("\n=== random frames approach but never beat the bound (N=4, T=0.5) ===")
spec4 = ModelSpec.uniform(4, 1.0)
sd4 = decompose(spec4)
g4 = correlations_from_rdm(
    pair_rdms(thermo_grid(sd4, [0.5]), 1, 2)).g
bound = violation_measure(g4).measure[0]
for count in (100, 1000, 10000, 100000):
    best = random_frame_search(g4[0], count, seed=7)
    print(f"{count:7d} frames: best {best:.6f}  (bound {bound:.6f}, "
          f"gap {bound - best:.2e})")
