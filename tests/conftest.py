"""Shared fixtures."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest


class PoolLog(list):
    """Requested pool sizes in request order, plus ``peak_unfinished``: the
    most futures that were submitted and not yet finished at any moment, and
    ``submitted``: how many futures were submitted in all."""

    peak_unfinished = 0
    submitted = 0


@pytest.fixture
def pool_sizes(monkeypatch):
    """Report the pool sizes a module asks for, on a pretended CPU count.

    ``install(module, cpus)`` replaces ``module.ThreadPoolExecutor`` with a
    recorder that notes each requested ``max_workers`` and counts unfinished
    futures, but runs its pool on one thread, so no test starts more threads
    than that.
    """
    seen = PoolLog()
    lock = threading.Lock()

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            seen.append(max_workers)
            super().__init__(max_workers=1)
            self.unfinished = 0

        def submit(self, fn, /, *args, **kwargs):
            with lock:
                seen.submitted += 1
                self.unfinished += 1
                seen.peak_unfinished = max(seen.peak_unfinished, self.unfinished)
            future = super().submit(fn, *args, **kwargs)
            future.add_done_callback(self._finished)  # also runs on cancel
            return future

        def _finished(self, future):
            with lock:
                self.unfinished -= 1

    def install(module, cpus):
        monkeypatch.setattr(module, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return seen

    return install
