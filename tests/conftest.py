import importlib
import os

import numpy as np
import pytest

# the package rebinds the name ``optimize`` to the function
optimize_mod = importlib.import_module("graphent.optimize")


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every thread pool :func:`graphent.optimize`
    starts, with two usable CPUs on any runner."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    real = optimize_mod.ThreadPoolExecutor

    def pool(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(optimize_mod, "ThreadPoolExecutor", pool)
    return started


@pytest.fixture
def pooled(pools, monkeypatch):
    """As ``pools``, with a thread for every block however small, so that
    small searches cross the pool."""
    monkeypatch.setattr(optimize_mod, "_THREAD_SHARE_ELEMS", 1)
    return pools
