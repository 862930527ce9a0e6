import pytest

from curvecount import sweep


@pytest.fixture
def fan_outs(monkeypatch):
    """The process count of every fork fan-out map_chunks made during the test, in order."""
    started = []
    fan_out = sweep._fan_out

    def counted(fn, batches, processes):
        started.append(processes)
        return fan_out(fn, batches, processes)

    monkeypatch.setattr(sweep, "_fan_out", counted)
    return started


@pytest.fixture
def fan_outs_forced(monkeypatch, fan_outs):
    """fan_outs, with TAU at 0, so that any sweep of two or more items fans out from its first batch."""
    monkeypatch.setattr(sweep, "TAU", 0)
    return fan_outs
