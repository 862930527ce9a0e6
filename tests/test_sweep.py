import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from curvecount import cli, collisions, residue_lemmas, sweep
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
    # Every worker count cuts up to 8 batches a worker, one worker too;
    # one item is one batch; a sweep whose rest never projects past
    # BREAK_EVEN forks nothing.
    assert map_chunks(lambda chunk: chunk, range(5), 1) == [[0], [1], [2], [3], [4]]
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
    # results still come back in batch order.
    def fn(batch):
        clock[0] += sweep.BREAK_EVEN / 10 * batch[0]
        return os.getpid(), batch

    results = map_chunks(fn, range(16), 2)
    assert [batch for _, batch in results] == [[i] for i in range(16)]
    assert results[0][0] == results[1][0] == os.getpid() and len({pid for pid, _ in results}) == 2
    assert fan_outs == [2]


def test_map_chunks_never_forks_at_one_worker(fan_outs_forced):
    # Even a gate every batch passes leaves one worker's batches here.
    batches = map_chunks(lambda chunk: (os.getpid(), chunk), range(20), 1)
    assert len(batches) == 8
    assert [i for _, chunk in batches for i in chunk] == list(range(20))
    assert {pid for pid, _ in batches} == {os.getpid()}
    assert fan_outs_forced == []


@pytest.mark.parametrize("module, call", [
    (sweep, lambda: cli.main(["ap-table", "--a", "3", "--b", "5", "--limit", "500"])),
    (residue_lemmas, lambda: residue_lemmas.verify_lemma(4, 500)),
    (collisions, lambda: collisions.collision_search(500)),
], ids=["ap-table", "verify_lemma", "collision_search"])
def test_sweeps_merge_batches_to_the_one_batch_answer(monkeypatch, capsys, module, call):
    # One worker still cuts 8 batches; each caller's merge of their
    # results gives what the items give as one batch.
    batched = call(), capsys.readouterr().out
    monkeypatch.setattr(module, "map_chunks", lambda fn, items, workers: [fn(list(items))])
    assert (call(), capsys.readouterr().out) == batched


def test_map_chunks_runs_in_process_without_fork(monkeypatch, fan_outs_forced):
    # The batches are cut as with fork, and all run here.
    monkeypatch.delattr(os, "fork")
    assert map_chunks(lambda chunk: (os.getpid(), chunk), range(4), 2) == [(os.getpid(), [i]) for i in range(4)]
    assert fan_outs_forced == []


def assert_no_child_left():
    # Every child has been reaped, so there is nothing left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_runs_chunks_in_children_and_reaps_them(fan_outs_forced):
    # fn need not pickle: a lambda reaches each child by fork.  Batch 0
    # runs here, and each of the three processes runs a share of the rest.
    pids = map_chunks(lambda batch: os.getpid(), range(12), 3)
    assert len(pids) == 12 and os.getpid() in pids and len(set(pids)) == 3
    assert fan_outs_forced == [3]
    assert_no_child_left()


def test_fan_out_returns_batches_in_order_when_later_ones_finish_first(fan_outs_forced):
    # Batch 0 runs here; of the three fanned out, batches 1 and 3 are this
    # process's share and batch 2 the child's, and batch 1 takes longest.
    def fn(batch):
        time.sleep(0.3 if batch == [1] else 0)
        return batch, os.getpid(), time.monotonic()

    results = map_chunks(fn, range(4), 2)
    assert [batch for batch, _, _ in results] == [[0], [1], [2], [3]]
    assert results[1][1] == results[3][1] == os.getpid() != results[2][1]
    assert results[1][2] > results[2][2]
    assert fan_outs_forced == [2]
    assert_no_child_left()


def test_fan_out_gives_process_k_every_processes_th_batch(fan_outs_forced, tmp_path):
    # Batch 0 runs here, before the fan-out.  Of the rest, process k of
    # `processes` runs rest[k::processes], this one being k = 0.  Each call
    # of fn appends one line to one file, so a batch run twice or never shows.
    log = tmp_path / "ran"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def fn(batch):
        os.write(fd, b"%d %d\n" % (batch[0], os.getpid()))
        return os.getpid(), batch

    try:
        for items, workers, processes in ((range(40), 2, 2), (range(40), 3, 3), (range(40), 5, 5), (range(3), 4, 2)):
            log.write_bytes(b"")
            results = map_chunks(fn, items, workers)
            assert [i for _, batch in results for i in batch] == list(items)
            ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
            assert sorted(ran) == [(batch[0], pid) for pid, batch in results]
            rest = [pid for pid, _ in results[1:]]
            shares = {pid: [j for j, ran_by in enumerate(rest) if ran_by == pid] for pid in rest}
            assert results[0][0] == os.getpid() and len(shares) == processes
            assert sorted(shares.values()) == [list(range(k, len(rest), processes)) for k in range(processes)]
            assert shares[os.getpid()] == list(range(0, len(rest), processes))
    finally:
        os.close(fd)
    assert fan_outs_forced == [2, 3, 5, 2]


def test_fan_out_reraises_a_chunk_error(fan_outs_forced):
    parent = os.getpid()

    def fail_in_child(batch):
        if os.getpid() != parent:
            raise KeyError("in a child")
        return batch

    def fail_here(batch):
        if batch == [0]:  # runs here, before the fan-out
            return batch
        if os.getpid() == parent:
            raise KeyError("here")
        time.sleep(1)  # so that the children still run when this process raises
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
        return batch

    with pytest.raises(ChildProcessError, match="SIGKILL"):
        map_chunks(fn, range(12), 2)
    assert_no_child_left()


def test_fan_out_child_that_exits_0_without_a_result_raises(fan_outs_forced):
    parent = os.getpid()

    def fn(batch):
        if os.getpid() != parent:
            os._exit(0)  # a clean exit that never sends the results
        return batch

    with pytest.raises(ChildProcessError, match="exited with status 0"):
        map_chunks(fn, range(12), 2)
    assert_no_child_left()


def test_fan_out_result_that_cannot_pickle_raises(fan_outs_forced):
    # Only results cross back from a child, so only they must pickle.
    def fn(batch):
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
    # 512 batches: the first runs here, and 64 processes share the other
    # 511, 7 or 8 each.  Each process appends one line a batch it runs to
    # one file, so a batch run twice or never shows.
    log = tmp_path / "ran"
    done = _run("import os\nfrom curvecount import sweep\nsweep.BREAK_EVEN = -1\n"
                f"fd = os.open({str(log)!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND)\n"
                "fn = lambda batch: os.write(fd, b'%d %d\\n' % (batch[0], os.getpid())) and batch\n"
                "batches = sweep.map_chunks(fn, range(1000), 64)\n"
                "print(len(batches), [i for batch in batches for i in batch] == list(range(1000)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "512 True\n", "")
    lines = log.read_text().split()
    firsts = sorted(int(first) for first in lines[::2])
    assert firsts == [1000 * j // 512 for j in range(512)]
    assert len(set(lines[1::2])) == 64


def test_map_chunks_rejects_workers_below_one():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            map_chunks(sum, range(10), workers)
