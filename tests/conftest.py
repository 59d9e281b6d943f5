"""Test-run settings: one BLAS thread.

The element kernels are many small dense products and factorizations,
which run slower on several BLAS threads than on one (the exact-solution
cases took 14-15 s with the default threads on a 2-CPU host and 10.3 s
with one).  pytest imports this file before the test modules, so the
variables are set before numpy loads OpenBLAS, as `perfbench/worker.py`
sets them for the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
