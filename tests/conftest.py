"""Fixtures every test runs under."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which this process still has a child, running or
    unreaped: a forked worker the pipeline failed to reap would otherwise
    outlive its run."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (waitpid: pid {pid}, status {status})")
