"""Suite-wide checks that every test runs under."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test after which a thread is alive that was not alive before
    it: a team's worker, or any thread a test starts, must be joined."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads outlived the test: {left}")
