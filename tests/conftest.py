import pytest

from curvecount import sweep


@pytest.fixture
def fan_outs(monkeypatch):
    """The chunk count k of every fork fan-out map_chunks made during the test, in order."""
    started = []
    fan_out = sweep._fan_out

    def counted(fn, chunks):
        started.append(len(chunks))
        return fan_out(fn, chunks)

    monkeypatch.setattr(sweep, "_fan_out", counted)
    return started


@pytest.fixture
def fan_outs_forced(monkeypatch, fan_outs):
    """fan_outs, with map_chunks's gate open to any work of two or more items."""
    monkeypatch.setattr(sweep, "FORK_COST", 0)
    return fan_outs
