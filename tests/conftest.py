"""A CPU-time bound on every test, so a test that loops fails instead of hanging the run."""

from __future__ import annotations

import signal

import pytest

# CPU seconds one test may use: over five times the slowest test of a full run (README's Testing section).
CPU_LIMIT_S = 60.0


class CpuLimitExceeded(BaseException):
    """Raised in a test that spends more than CPU_LIMIT_S of CPU time.

    A BaseException, so neither an ``except Exception`` in the code under
    test nor hypothesis, which would shrink by rerunning the looping
    example with the timer spent, catches it; pytest reports it as the
    test's failure.
    """


def _expire(signum, frame):
    code = frame.f_code
    raise CpuLimitExceeded(f"the test used over {CPU_LIMIT_S:g} s of CPU time; it was in {code.co_name} ({code.co_filename})")


@pytest.fixture(autouse=True)
def cpu_limit():
    """Arm a one-shot virtual-time timer around each test; a no-op where the platform has none."""
    if not hasattr(signal, "setitimer") or not hasattr(signal, "SIGVTALRM"):
        yield
        return
    before = signal.signal(signal.SIGVTALRM, _expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, CPU_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, before)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    try:
        return (yield)
    except CpuLimitExceeded as err:
        # The interrupted frame's traceback entry can carry no line number
        # (seen on Python 3.11), which pytest fails to format; the message names the function.
        raise err.with_traceback(None)
