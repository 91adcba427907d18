"""The CPU kernel pin of conftest.py took effect in the test process."""

import ctypes
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__


def test_the_tests_run_on_the_pinned_kernels():
    # the digests the tests pin were recorded on OpenBLAS's Haswell kernels
    # and numpy's AVX2-level loops; a numpy loaded before the pin was set
    # would take the host's own choice, and this test fails there
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    (path,) = libs.glob("libscipy_openblas*")
    corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    assert corename() == b"Haswell"
    assert __cpu_features__["X86_V4"] is False
