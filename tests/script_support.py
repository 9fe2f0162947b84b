"""Set-up shared by the manual scripts under ``tests``.

A script imports this module before numpy.  The import pins BLAS to one
thread, because threaded reductions may round differently from run to
run, and puts this tree's ``src`` and ``bench`` first on the path, so a
script runs the tree it sits in.  Python puts the script's own directory,
``tests``, on the path already.  To run a script against an older tree,
copy it and this file into that tree's ``tests``.

pytest does not collect this file.
"""

import hashlib
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]


def sha(data: bytes) -> str:
    """The first 16 hex digits of the sha256 of ``data``."""
    return hashlib.sha256(data).hexdigest()[:16]
