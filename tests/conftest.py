"""Fixtures shared by test modules."""

import os

import pytest

from latmax import experiments


@pytest.fixture
def two_task_threads(monkeypatch):
    """A two-CPU affinity with BLAS pinned to one thread, so
    experiments._concurrently runs two calls at a time, as it does under
    the benchmark harness on a two-CPU host.  The loaded BLAS keeps the
    thread count it started with; only the worker rule reads the setting."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in experiments._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert experiments._workers(2) == 2
