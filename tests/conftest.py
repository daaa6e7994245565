import signal
from contextlib import contextmanager

import pytest


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
