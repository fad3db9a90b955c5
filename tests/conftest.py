"""Pin BLAS to one thread before any test module imports numpy.

The sweep cuts call dense `eigh`; with unpinned BLAS threads competing for
two cores it ran 8-49x slower.  `setdefault` keeps a value set outside.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
