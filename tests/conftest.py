"""Pin BLAS to one thread for the whole test run.

Runtime bounds in the acceptance tests assume one BLAS thread per process;
with the library's default of one thread per core, two concurrent test
runs oversubscribe the machine.  The variables are read when numpy loads,
which is after this file runs; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
