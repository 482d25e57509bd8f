"""Speed calibration: times reported at a fixed reference speed.

The benchmark runs on a shared host whose speed switches between levels up
to 60% apart, each lasting from seconds to minutes, and a process's CPU time
moves with it (the drift is contention for the core and its caches, not time
taken away).  So the benchmark runs its jobs in slices of at most a second
(run.run_child), and before and after each slice it runs `kernel`, a fixed
piece of pure-Python work that uses no tannakit code, a few times on the same
CPU, and reports for the slice

    reported = measured * NOMINAL_S / median(kernel times before and after)

that is, seconds at the speed at which `kernel` takes NOMINAL_S.  A change to
tannakit moves the reported time exactly as it moves the measured one; a
change of the host's speed cancels out.  Over 200 s of CLI jobs alternating
with kernels on a 2-vCPU shared VM, the median job time of 20 s windows
spread (quartile distance over median) 0.39-0.45 raw and 0.04-0.07 reported.
"""

import statistics
import time
from fractions import Fraction

# kernel() time on the reference host (a 2-vCPU shared VM, Python 3.11.7) at
# its median speed; fixed so that every commit is reported on the same scale.
NOMINAL_S = 0.025
# kernel() runs per measure(): a median of several resists a one-off stall
REPEATS = 3


def kernel():
    """Fraction elimination on a fixed matrix, then integer and dict work:
    the kinds of work tannakit's matrix code does, with none of its code."""
    n = 9
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    acc = {}
    for i in range(100000):
        acc[i % 113] = acc.get(i % 113, 0) + i * i
    return rows, acc


def measure():
    """Seconds that each of REPEATS kernel() runs takes now."""
    out = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def scale(before, after):
    """Factor from seconds measured between two measure() results to seconds
    at the reference speed."""
    return NOMINAL_S / statistics.median(before + after)
