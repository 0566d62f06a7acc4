"""Fixtures shared by the scenario tests."""

import signal

import pytest


@pytest.fixture
def watchdog():
    """Turn a hang into a failure: a pool that waits forever on a killed
    worker fails the test after 20 s instead of stalling the suite."""
    def expired(signum, frame):
        raise TimeoutError("still waiting on a dead worker")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
