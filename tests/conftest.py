import hashlib
import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest


def _traced_peak(fn) -> int:
    """The peak of memory traced by tracemalloc while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# numpy version, OpenBLAS build configuration, and sha256 of the sorted names
# of the CPU features numpy detects (an AVX-512 Intel Xeon)
_GOLDEN_BUILD = (
    "2.4.6",
    "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell MAX_THREADS=64",
    "1a35e27c171a8c8a283f0cf2a3e0a7b09ce178b1b27ab21e66654fa49afc1804",
)


def _numpy_build() -> tuple[str, str, str] | None:
    if np.__version__ != _GOLDEN_BUILD[0]:
        return None  # the lookups below are those of numpy 2.x
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    features = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return (
        np.__version__,
        blas.get("openblas configuration", ""),
        hashlib.sha256(features.encode()).hexdigest(),
    )


# digests of values that numpy's SIMD loops or OpenBLAS's kernels round by CPU
golden_build_only = pytest.mark.skipif(
    _numpy_build() != _GOLDEN_BUILD, reason="digests recorded on another numpy, BLAS or CPU"
)


class Overtime(BaseException):
    """Raised by `within` when its body overruns; a BaseException, so no `except Exception` hides it."""


@pytest.fixture
def within():
    """within(seconds) is a context that fails the test when its body runs longer.

    Uses SIGALRM, so it stops Python-level loops (a spin in one C call ends
    only when the call returns).
    """

    @contextmanager
    def deadline(seconds: float):
        def expire(signum, frame):
            raise Overtime(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return deadline
