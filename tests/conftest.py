"""Pin BLAS to one thread per test process.

OpenBLAS reads its thread variables once, when numpy loads, so they are
set here, before any test module imports numpy; a value already in the
environment is kept. `monte_carlo` also reads them to size its trial
pool. If numpy was imported before this file (a plugin, or a config
entry that names a class in spglr), the variables do not pin BLAS, and
the session says so at its end.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_IMPORTED_FIRST = "numpy" in sys.modules

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter):
    if NUMPY_IMPORTED_FIRST:
        terminalreporter.write_sep(
            "=", "numpy was imported before tests/conftest.py: BLAS threads are not pinned",
            yellow=True)
