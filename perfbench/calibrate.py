"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark runs on shared hosts whose speed drifts by up to half over
minutes (neighbours on the same cores and memory), on a time scale
longer than a run.  Longer runs do not average that out; timing a fixed
kernel right after each measured solve, in the same process, does.  A
run's median times are reported at the reference speed:

    t_ref = median(t_measured) * REFERENCE_S / median(t_kernel)

where `REFERENCE_S` is the kernel's time on a host of the reference
speed.  The kernel uses numpy and scipy only, never shelldpg, so no
change to the program can change it.  Its parts mirror the program's
kinds of work: batched small dense products that fit in cache and
batched larger ones that do not (element kernels), a sparse LU
factorization and solve (the solver), an interpreter-bound dictionary
loop (mesh refinement and marking) and a pass over an array larger than
the caches (assembly of the element arrays).  Neighbours that compete
for memory bandwidth slow the last two most, and those slow the
assembly-bound uniform workload most.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# a round figure near the kernel's median time on the 2-vCPU x86-64 VM
# where the baseline was recorded, OpenBLAS pinned to one thread; it only
# sets the unit, since both sides of any comparison use it
REFERENCE_S = 0.25

_GRID = 70
_STREAM = 6_000_000  # 48 MB of float64, larger than the caches


def _laplacian(n):
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    return (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()


def kernel_parts():
    """Seconds of each of the kernel's parts, in order."""
    rng = np.random.default_rng(0)
    g = rng.standard_normal((500, 24, 24))
    big = np.full((3000, 30, 30), 0.5)
    stream = np.full(_STREAM, 0.5)
    a = _laplacian(_GRID)
    b = np.ones(a.shape[0])

    t0 = time.perf_counter()
    for _ in range(3):
        g = np.einsum("eij,ejk->eik", g, g) * 0.01
    t1 = time.perf_counter()
    x = splu(a).solve(b)
    t2 = time.perf_counter()
    counts = {}
    for i in range(150_000):
        k = (i * 7919) % 10007
        counts[k] = counts.get(k, 0) + i
    t3 = time.perf_counter()
    total = 0.0
    for _ in range(2):
        total += float((stream * 1.0001 + 0.5).sum())
    t4 = time.perf_counter()
    big = np.einsum("eij,ekj->eik", big, big)
    t5 = time.perf_counter()
    if not (np.all(np.isfinite(g)) and np.isfinite(x).all() and counts
            and np.isfinite(total) and np.isfinite(big).all()):
        raise ArithmeticError("calibration kernel produced non-finite values")
    return t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4
