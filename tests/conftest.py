import concurrent.futures

import pytest

from curvecount import sweep


@pytest.fixture
def pool_starts(monkeypatch):
    """The max_workers of every process pool started during the test, in order."""
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return started


@pytest.fixture
def pool_forced(monkeypatch, pool_starts):
    """pool_starts, with map_chunks's gate open to any work of two or more items."""
    monkeypatch.setattr(sweep, "POOL_START_COST", 0)
    return pool_starts
