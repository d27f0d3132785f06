"""Long-run average optimal control via occupation-measure linear programs.

The package discretises the measure-theoretic formulation of long-run average
optimal control of constrained ODEs into finite linear programs, extracts dual
certificates from their multipliers, and cross-validates every program value
against trajectory simulation and brute-force oracles.
"""

import os

# Every mat-vec here is small, and an OpenBLAS worker thread only spins beside
# the --jobs pool; this must run before the first submodule import loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
