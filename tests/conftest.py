"""Shared fixtures."""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Report the pool sizes a module asks for, on a pretended CPU count.

    ``install(module, cpus)`` replaces ``module.ThreadPoolExecutor`` with a
    recorder that notes each requested ``max_workers`` but runs its pool on
    one thread, so no test starts more threads than that.
    """
    seen = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            seen.append(max_workers)
            super().__init__(max_workers=1)

    def install(module, cpus):
        monkeypatch.setattr(module, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return seen

    return install
