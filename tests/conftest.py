"""Test setup: one BLAS thread unless the caller chose otherwise.

The suite runs many small (64 x 64) matrix products; on a few cores the
default BLAS thread pool oversubscribes them and runs several times slower.
The variables are read when numpy loads, which is after this file.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
