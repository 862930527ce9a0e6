import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from curvecount import sweep
from curvecount.sweep import map_chunks


def test_map_chunks_keeps_chunk_order(fan_outs_forced):
    # Batches are contiguous, of near-equal count, 8 a worker at most one
    # item each, and come back in order.
    assert map_chunks(list, range(7), 2) == [[0], [1], [2], [3], [4], [5], [6]]
    batches = map_chunks(list, range(40), 2)
    assert len(batches) == 16 and [i for batch in batches for i in batch] == list(range(40))
    assert {len(batch) for batch in batches} == {2, 3}
    assert map_chunks(sum, range(1, 11), 3) == list(range(1, 11))
    assert fan_outs_forced == [2, 2, 3]


def test_map_chunks_runs_in_process_below_the_gate(fan_outs):
    # One worker, or one item, is one batch; a sweep whose rest never
    # projects past BREAK_EVEN forks nothing.
    assert map_chunks(lambda chunk: chunk, range(5), 1) == [[0, 1, 2, 3, 4]]
    assert map_chunks(lambda chunk: chunk, [7], 4) == [[7]]
    assert map_chunks(lambda chunk: chunk, [], 4) == []
    assert map_chunks(lambda chunk: (os.getpid(), chunk), [1, 2, 3, 4, 5], 3) == [(os.getpid(), [i]) for i in range(1, 6)]
    assert fan_outs == []


@pytest.fixture
def clock(monkeypatch):
    """sweep's perf_counter, read from clock[0], which only the test advances, so no gate reads the host's load."""
    now = [0.0]
    monkeypatch.setattr(sweep, "perf_counter", lambda: now[0])
    return now


def test_map_chunks_keeps_cheap_batches_in_process(fan_outs, clock):
    # 16 batches of BREAK_EVEN / 50 (1 ms) together take longer than a
    # bare fan-out (about 5 ms), but after each one the rest projects to
    # 15 ms at most, below BREAK_EVEN (50 ms), so nothing forks.
    def fn(batch):
        clock[0] += sweep.BREAK_EVEN / 50
        return os.getpid(), batch

    assert map_chunks(fn, range(16), 2) == [(os.getpid(), [i]) for i in range(16)]
    assert clock[0] > 0.005
    assert fan_outs == []


def test_map_chunks_forks_once_growing_batches_pay(fan_outs, clock):
    # Batch i takes i tenths of BREAK_EVEN on the test's clock.  Batch 0
    # projects the rest at 0 and runs here; after batch 1 the rest projects
    # to 1.4 BREAK_EVEN, so it fans out once, to both workers, and the
    # results still come back in batch order.  The real sleep only lets
    # both processes take batches off the queue.
    def fn(batch):
        clock[0] += sweep.BREAK_EVEN / 10 * batch[0]
        time.sleep(0.02)
        return os.getpid(), batch

    results = map_chunks(fn, range(16), 2)
    assert [batch for _, batch in results] == [[i] for i in range(16)]
    assert results[0][0] == results[1][0] == os.getpid() and len({pid for pid, _ in results}) == 2
    assert fan_outs == [2]


def test_map_chunks_runs_in_process_without_fork(monkeypatch, fan_outs_forced):
    monkeypatch.delattr(os, "fork")
    assert map_chunks(lambda chunk: (os.getpid(), chunk), range(4), 2) == [(os.getpid(), [0, 1, 2, 3])]
    assert fan_outs_forced == []


def assert_no_child_left():
    # Every child has been reaped, so there is nothing left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_runs_chunks_in_children_and_reaps_them(fan_outs_forced):
    # fn need not pickle: a lambda reaches each child by fork.  Each batch
    # takes long enough that every process takes one off the queue.
    pids = map_chunks(lambda batch: time.sleep(0.1) or os.getpid(), range(12), 3)
    assert len(pids) == 12 and os.getpid() in pids and len(set(pids)) == 3
    assert fan_outs_forced == [3]
    assert_no_child_left()


def test_fan_out_returns_batches_in_order_when_later_ones_finish_first(fan_outs_forced):
    # Batch 0 runs here; of the three fanned out, batch 1 takes longest.
    def fn(batch):
        time.sleep(0.3 if batch == [1] else 0)
        return batch, time.monotonic()

    results = map_chunks(fn, range(4), 2)
    assert [batch for batch, _ in results] == [[0], [1], [2], [3]]
    assert results[1][1] > results[3][1]
    assert fan_outs_forced == [2]
    assert_no_child_left()


def test_fan_out_reraises_a_chunk_error(fan_outs_forced):
    parent = os.getpid()

    def fail_in_child(batch):
        if os.getpid() != parent:
            raise KeyError("in a child")
        time.sleep(0.1)  # so that the children take batches too
        return batch

    def fail_here(batch):
        if batch == [0]:  # runs here, before the fan-out
            return batch
        if os.getpid() == parent:
            raise KeyError("here")
        time.sleep(1)  # so that this process takes a batch
        return batch

    with pytest.raises(KeyError) as raised:
        map_chunks(fail_in_child, range(12), 3)
    assert raised.value.args == ("in a child",)
    assert_no_child_left()
    with pytest.raises(KeyError) as raised:  # while the children run
        map_chunks(fail_here, range(12), 3)
    assert raised.value.args == ("here",)
    assert_no_child_left()


def test_fan_out_names_the_signal_that_killed_a_child(fan_outs_forced):
    parent = os.getpid()

    def fn(batch):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.1)
        return batch

    with pytest.raises(ChildProcessError, match="SIGKILL"):
        map_chunks(fn, range(12), 2)
    assert_no_child_left()


def test_fan_out_child_that_exits_0_without_a_result_raises(fan_outs_forced):
    parent = os.getpid()

    def fn(batch):
        if os.getpid() != parent:
            os._exit(0)  # a clean exit that never sends the results
        time.sleep(0.1)
        return batch

    with pytest.raises(ChildProcessError, match="exited with status 0"):
        map_chunks(fn, range(12), 2)
    assert_no_child_left()


def test_fan_out_result_that_cannot_pickle_raises(fan_outs_forced):
    # Only results cross back from a child, so only they must pickle.
    def fn(batch):
        time.sleep(0.1)
        return lambda: batch

    with pytest.raises(Exception, match="pickle") as raised:
        map_chunks(fn, range(12), 2)
    assert isinstance(raised.value, (pickle.PicklingError, AttributeError, TypeError))
    assert_no_child_left()


def test_fan_out_kills_children_when_this_process_fails(fan_outs_forced):
    parent = os.getpid()

    def fn(batch):
        if batch == [0]:  # runs here, before the fan-out
            return batch
        if os.getpid() == parent:
            raise ValueError("this process")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="this process"):
        map_chunks(fn, range(6), 3)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def _run(code: str):
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)


def test_fan_out_children_never_flush_inherited_stdout():
    # A pipe makes stdout block-buffered (unless PYTHONUNBUFFERED is set),
    # so "before" is still in the buffer each child inherits at fork.
    done = _run("from curvecount import sweep\nsweep.BREAK_EVEN = -1\nprint('before')\n"
                "print(sweep.map_chunks(sum, range(6), 3))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "before\n[0, 1, 2, 3, 4, 5]\n", "")


def test_fan_out_at_64_workers_runs_every_batch_once(tmp_path):
    # 512 batches need both bytes of a queue index; each process appends
    # one line a batch it runs to one file, so a batch run twice or never shows.
    # Each batch sleeps 1 ms, so that children start before the queue is empty.
    log = tmp_path / "ran"
    done = _run("import os, time\nfrom curvecount import sweep\nsweep.BREAK_EVEN = -1\n"
                f"fd = os.open({str(log)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)\n"
                "fn = lambda batch: time.sleep(0.001) or os.write(fd, b'%d %d\\n' % (batch[0], os.getpid())) and batch\n"
                "batches = sweep.map_chunks(fn, range(1000), 64)\n"
                "print(len(batches), [i for batch in batches for i in batch] == list(range(1000)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "512 True\n", "")
    lines = log.read_text().split()
    firsts = sorted(int(first) for first in lines[::2])
    assert firsts == [1000 * j // 512 for j in range(512)]
    assert len(set(lines[1::2])) > 1


def test_map_chunks_rejects_workers_below_one():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            map_chunks(sum, range(10), workers)
