"""Pin BLAS to one thread before anything imports numpy.

Threaded BLAS gains nothing on the small SVDs and solves of the search and
thrashes when the host is busy; the digest scripts and the benchmark pin
the same variables.  A value already set in the environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
