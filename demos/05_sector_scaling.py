"""Why blocking by symmetry pays: full, sectored and momentum-blocked timings.

The ring Hamiltonian conserves total S_z, so the 2^N x 2^N matrix splits
into independent blocks of size C(N, k).  The largest block at N = 14 is
3432-dimensional, and the block eigenvectors take 321 MB: desk-scale, where
the dense 16384-dimensional problem (2.1 GB of real eigenvectors alone)
is not.  The sectored column includes the block eigenvectors at every N.

Translations commute with H too.  When only eigenvalues are wanted (the
threshold, u(N), the spectrum), a uniform ring's sectors split further into
one block per lattice momentum; the zero-momentum block, over the
translation-orbit representatives of the widest sector, is the largest.
That path also diagonalises each conjugate momentum pair m, -m once and
each spin-flipped sector pair k, N - k once, since they share their
levels.  The momentum column times that values-only path.  Pass --large to
include N = 13, 14.

The dense matrix, its eigensolver and the sector bookkeeping are the
reference routes of heisenring.oracle; decompose is the production path.
"""

import sys
import time

import numpy as np

from heisenring import ModelSpec, decompose
from heisenring.model import rotate
from heisenring.oracle import (
    build_hamiltonian,
    diagonalize_full,
    expected_sector_sizes,
    sector_basis,
)

large = "--large" in sys.argv

print(f"{'N':>3} {'dim':>6} {'largest block':>14} {'largest momentum block':>23} "
      f"{'full (s)':>9} {'sectored (s)':>13} {'momentum (s)':>13} {'max |dev|':>10}")
for n in range(6, 15 if large else 13):
    spec = ModelSpec.uniform(n, 1.0)
    widest = max(sector_basis(n), key=np.size)
    # the translation-orbit representatives: states no rotation makes smaller
    reps = np.min([rotate(widest, r, n) for r in range(n)], axis=0) == widest
    if n <= 10:
        h = build_hamiltonian(spec)
        t0 = time.perf_counter()
        full = diagonalize_full(h)
        t_full = time.perf_counter() - t0
        full_s = f"{t_full:9.2f}"
    else:
        full, full_s = None, "      ---"
    t0 = time.perf_counter()
    sect = decompose(spec)
    t_sect = time.perf_counter() - t0
    t0 = time.perf_counter()
    mom = decompose(spec, vectors=False)
    t_mom = time.perf_counter() - t0
    ref = sect if full is None else full
    dev = max(np.max(np.abs(ref.eigenvalues - sd.eigenvalues)) for sd in (sect, mom))
    print(f"{n:3d} {1 << n:6d} {max(expected_sector_sizes(n)):14d} "
          f"{int(np.sum(reps)):23d} {full_s} {t_sect:13.2f} "
          f"{t_mom:13.2f} {dev:10.1e}")

print("\nmax |dev| compares with the dense oracle up to N = 10 and with the "
      "sector blocks above; no production path forms the dense matrix, and the "
      "blocks carry on to N = 14")
