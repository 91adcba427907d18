"""Test-wide settings.

The CPU kernels are pinned before numpy loads: OpenBLAS takes its Haswell
kernels and numpy its SIMD loops at AVX2 level, so the sha256 digests the
tests pin hold on every x86-64 host with AVX2 and FMA, whichever kernels the
host would pick by itself. Subprocesses inherit the setting. numpy reports a
listed feature the host lacks by an ImportWarning as it loads; it is loaded
here under a filter that ignores it, so no warning filter can turn that
report into an error.

hypothesis draws the same examples on every run, and no example is failed
for taking long."""

import os
import warnings

os.environ["OPENBLAS_CORETYPE"] = "Haswell"
os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
# numpy refuses to load with both of its feature variables set
os.environ.pop("NPY_ENABLE_CPU_FEATURES", None)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", ImportWarning)
    import numpy  # noqa: F401

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
