"""Fixtures shared by every test module."""

import threading
import time

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started alive: the new threads are
    joined for up to 1 s in all, and any still running then fails the test it
    leaked from, whichever test that is."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    alive = []
    for thread in threading.enumerate():
        if thread not in before:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                alive.append(thread.name)
    if alive:
        pytest.fail(f"threads still alive after the test: {alive}")
