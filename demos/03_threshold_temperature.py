"""Threshold temperatures and the u(N) size scan for antiferromagnetic rings.

Pairwise entanglement on an isotropic antiferromagnetic ring dies at a
sharp threshold temperature T_c solving U(T_c) = -N J.  For N = 2 the
closed form is T_c = 8J / ln 3; for N = 3 there is no threshold because
the ring is never pairwise entangled (u(3) = -E0/(3J) is exactly 1, the
marginal value).  u(N) = -E0/(NJ) at T = 0 measures how much margin the
ground state has; the even and odd branches approach their limits from
opposite sides.
"""

import math

from heisenring import ModelSpec, find_threshold, u_of_n_scan

print("=== threshold temperatures, J = 1 ===")
print(f"{'N':>3} {'status':>24} {'T_c':>12} {'U(T_c)/(-NJ)':>14} {'iters':>6}")
for n in range(2, 9):
    spec = ModelSpec.uniform(n, 1.0)
    res = find_threshold(spec)
    t_c = "" if res.t_c is None else f"{res.t_c:12.6f}"
    u = "" if res.u_of_n is None else f"{res.u_of_n:14.9f}"
    print(f"{n:3d} {res.status:>24} {t_c:>12} {u:>14} {res.iterations:6d}")
print(f"\nN=2 closed form: 8/ln3 = {8.0 / math.log(3.0):.6f}")

print("\n=== u(N) = -E0/(NJ) at T = 0 ===")
scan = u_of_n_scan(list(range(2, 11)), 1.0, 0.0)
for n, u in scan.items():
    marker = " (twice-counted bond)" if n == 2 else \
             " (marginal: never entangled)" if n == 3 else ""
    print(f"  u({n:2d}) = {u:.8f}{marker}")
even = [scan[n] for n in (4, 6, 8, 10)]
odd = [scan[n] for n in (3, 5, 7, 9)]
print(f"even branch non-increasing: {all(a >= b for a, b in zip(even, even[1:]))}")
print(f"odd branch non-decreasing:  {all(a <= b for a, b in zip(odd, odd[1:]))}")
print("(u > 1 means the ground state is pairwise entangled)")
