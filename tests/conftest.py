"""Load the package before any test module imports numpy.

The console script, the benchmark rounds and ``tools/artifact_hashes.py``
import ``fokker_flux`` before numpy, so numpy's OpenBLAS starts on one
thread (see the package ``__init__``). Importing it here gives the tests
the same BLAS threads, whichever module a test file imports first.
"""

import fokker_flux  # noqa: F401
