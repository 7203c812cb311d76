"""Stackelberg pricing for mobile crowdsensing under demand uncertainty.

The package splits into the static game (model, follower, leader), the
repeated-game environment (dynamics), a from-scratch PPO pricing agent
(learner), and the experiment tooling behind the command line
(experiments, gradcheck, reporting, cli).

Importing it runs numpy's bundled OpenBLAS on one thread unless
OPENBLAS_NUM_THREADS is set: with a thread per CPU, two processes on one
host slow each other's tiny products down many-fold.
"""

import os

__version__ = "0.1.0"


def _openblas():
    """The scipy-openblas numpy's wheels bundle, through ctypes, or None for another BLAS."""
    import ctypes
    import glob
    import numpy

    root, name = os.path.dirname(numpy.__file__), "libscipy_openblas64_*"
    for path in glob.glob(f"{root}.libs/{name}") + glob.glob(f"{root}/.dylibs/{name}"):
        lib = ctypes.CDLL(path)  # the copy numpy loaded: dlopen returns its handle
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


if "OPENBLAS_NUM_THREADS" not in os.environ and (_blas := _openblas()) is not None:
    _blas.scipy_openblas_set_num_threads64_(1)
