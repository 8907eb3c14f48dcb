"""The BLAS thread pin from conftest.py is in force in the loaded library."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
           "openblas_get_num_threads")


def loaded_openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be read."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # make sure BLAS is loaded
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.lower()})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in SYMBOLS:
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def test_openblas_runs_the_pinned_thread_count():
    threads = loaded_openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread query in this numpy build")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
