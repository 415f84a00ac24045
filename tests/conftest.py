"""Checks that every test runs under."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or not reaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid: {pid}, {status})")
