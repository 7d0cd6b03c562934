"""Pin BLAS and OpenMP to one thread before numpy loads, as the benchmark does.

The solves here are small; a second BLAS thread gains nothing on them and can
stall the first one in a process for about a second.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
