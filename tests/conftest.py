"""Suite-wide guard: a hung test fails fast and names itself."""

import faulthandler
import sys

import pytest

try:
    from _pytest.faulthandler import fault_handler_stderr_fd_key
except ImportError:  # an older pytest: fall back to plain stderr
    fault_handler_stderr_fd_key = None

#: A test still running after this long is hung (the slowest tier-1
#: test takes about 10 s): every thread's stack is dumped, the test's
#: own frame among them, and the run exits instead of waiting for the
#: CI job's timeout.
HANG_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    # pytest's own uncaptured copy of stderr: with output capture on,
    # a dump written to fd 2 would vanish with the exiting process.
    stash = request.config.stash
    out = (
        stash.get(fault_handler_stderr_fd_key, None)
        if fault_handler_stderr_fd_key is not None else None
    )
    faulthandler.dump_traceback_later(
        HANG_TIMEOUT_S, exit=True,
        file=out if out is not None else sys.__stderr__,
    )
    yield
    faulthandler.cancel_dump_traceback_later()
