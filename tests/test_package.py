"""Tests of what importing the package does: one BLAS thread unless the user chose a count."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mcsgame

SRC = str(Path(__file__).resolve().parent.parent / "src")
READ_BACK = ("import ctypes, mcsgame; get = mcsgame._openblas().scipy_openblas_get_num_threads64_; "
             "get.argtypes, get.restype = [], ctypes.c_int; print(get())")


def _env(**env_vars) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=SRC, **env_vars)
    return env


def _threads_after_import(**env_vars) -> int:
    env = _env(**env_vars)
    done = subprocess.run([sys.executable, "-c", READ_BACK], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return int(done.stdout)


@pytest.mark.skipif(mcsgame._openblas() is None, reason="numpy does not bundle scipy-openblas")
def test_import_sets_one_blas_thread_unless_openblas_num_threads_is_set():
    assert _threads_after_import() == 1
    # the user's count is left alone (2, not the 1 the package would set)
    assert _threads_after_import(OPENBLAS_NUM_THREADS="2") == 2


def _trains_at_once(count: int, out) -> float:
    """Seconds from starting count `train` processes at once to the last one's exit."""
    argv = [sys.executable, "-m", "mcsgame", "train", "--set", "train.episodes=20", "--svg", "off"]
    start = time.perf_counter()
    procs = [subprocess.Popen([*argv, "--out", str(out / f"run{i}")], env=_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for i in range(count)]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    return time.perf_counter() - start


@pytest.mark.skipif(mcsgame._openblas() is None, reason="numpy does not bundle scipy-openblas")
def test_two_train_processes_at_once_take_at_most_three_solo_runs(tmp_path):
    # with a BLAS thread per CPU, two processes slowed each other 13-32x
    solo = _trains_at_once(1, tmp_path / "solo")
    pair = _trains_at_once(2, tmp_path / "pair")
    assert pair <= 3.0 * solo, (pair, solo)
