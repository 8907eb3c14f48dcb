"""The BLAS thread pin from conftest.py is in force in every loaded OpenBLAS.

numpy and scipy each ship their own OpenBLAS, with its own thread pool: the
dense products run in numpy's, the Haar QR and the field's Cholesky factors
in scipy's.  Each library is asked for its thread count through its own
symbol.
"""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads64_", "openblas_get_num_threads")


def loaded_openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, by library path."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return {}
    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # make sure both BLAS are loaded
    scipy.linalg.cholesky(np.eye(2))
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line.lower()})
    threads = {}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in SYMBOLS:
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[lib] = int(fn())
                break
    return threads


def test_openblas_runs_the_pinned_thread_count():
    threads = loaded_openblas_threads()
    if not threads:
        pytest.skip("no OpenBLAS thread query in this numpy or scipy build")
    pinned = int(os.environ["OPENBLAS_NUM_THREADS"])
    assert threads == dict.fromkeys(threads, pinned)
