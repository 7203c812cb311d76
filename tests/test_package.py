"""Tests of what importing the package does: one BLAS thread unless the user chose a count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcsgame

SRC = str(Path(__file__).resolve().parent.parent / "src")
READ_BACK = ("import ctypes, mcsgame; get = mcsgame._openblas().scipy_openblas_get_num_threads64_; "
             "get.argtypes, get.restype = [], ctypes.c_int; print(get())")


def _threads_after_import(**env_vars) -> int:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=SRC, **env_vars)
    done = subprocess.run([sys.executable, "-c", READ_BACK], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return int(done.stdout)


@pytest.mark.skipif(mcsgame._openblas() is None, reason="numpy does not bundle scipy-openblas")
def test_import_sets_one_blas_thread_unless_openblas_num_threads_is_set():
    assert _threads_after_import() == 1
    # the user's count is left alone (2, not the 1 the package would set)
    assert _threads_after_import(OPENBLAS_NUM_THREADS="2") == 2
