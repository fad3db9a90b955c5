"""Pin BLAS to one thread before any test module imports numpy.

The spectral sweep order calls dense `eigvalsh` and `solve`; the `eigh` they
replaced ran 8-49x slower with unpinned BLAS threads competing for two
cores.  `setdefault` keeps a value set outside.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
