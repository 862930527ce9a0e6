import os
import pickle
import signal
import subprocess
import sys
import time
from functools import partial

import pytest

from curvecount import sweep
from curvecount.modmath import sieve_primes
from curvecount.point_count import Curve, good_odd_primes, record_cost
from curvecount.sweep import FORK_COST, map_chunks, split_by_cost


def test_map_chunks_keeps_chunk_order(fan_outs_forced):
    # chunks are contiguous, cut by cost, and come back in order
    assert map_chunks(list, range(7), 2, lambda i: 1) == [[0, 1, 2, 3], [4, 5, 6]]
    assert map_chunks(sum, range(1, 11), 2, lambda i: i) == [28, 27]
    assert map_chunks(list, range(10), 3, lambda i: 1) == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]]
    assert fan_outs_forced == [2, 2, 3]


def test_map_chunks_runs_in_process_below_the_gate(fan_outs):
    assert map_chunks(lambda chunk: chunk, [1, 2, 3, 4, 5], 3, lambda i: 1) == [[1, 2, 3, 4, 5]]
    assert map_chunks(lambda chunk: chunk, range(5), 1, lambda i: 10 * FORK_COST) == [[0, 1, 2, 3, 4]]
    assert map_chunks(lambda chunk: chunk, [7], 4, lambda i: 10 * FORK_COST) == [[7]]
    assert map_chunks(lambda chunk: chunk, [], 4, lambda i: 1) == []
    assert fan_outs == []


def test_map_chunks_gate_threshold(fan_outs):
    # Two workers pay when total/2 + FORK_COST < total, that is when
    # the total exceeds twice the fork cost.
    assert map_chunks(lambda chunk: chunk, [1, 2], 2, lambda i: FORK_COST) == [[1, 2]]
    assert map_chunks(list, [1, 2], 2, lambda i: FORK_COST + 1) == [[1], [2]]
    assert fan_outs == [2]


def test_map_chunks_gate_takes_the_largest_worker_count(fan_outs):
    # A total of 1.8 fork costs does not pay at two workers but does at
    # three, so three workers start.
    cost = 0.6 * FORK_COST
    assert map_chunks(lambda chunk: chunk, [1, 2, 3], 2, lambda i: cost) == [[1, 2, 3]]
    assert map_chunks(list, [1, 2, 3], 3, lambda i: cost) == [[1], [2], [3]]
    assert fan_outs == [3]


def test_map_chunks_prices_items_only_when_it_can_fan_out(monkeypatch, fan_outs):
    priced = []

    def cost(item):
        priced.append(item)
        return 10 * FORK_COST

    assert map_chunks(lambda chunk: chunk, range(5), 1, cost) == [[0, 1, 2, 3, 4]]
    assert map_chunks(lambda chunk: chunk, [7], 4, cost) == [[7]]
    with monkeypatch.context() as patched:
        patched.delattr(os, "fork")
        assert map_chunks(lambda chunk: chunk, range(4), 2, cost) == [[0, 1, 2, 3]]
    assert priced == [] and fan_outs == []
    assert map_chunks(list, range(4), 2, cost) == [[0, 1], [2, 3]]
    assert priced == [0, 1, 2, 3] and fan_outs == [2]


def test_closed_form_traces_start_no_pool(fan_outs):
    # A closed-form record takes about as long to compute as to pickle back
    # from a worker, so 78,497 of them cost nothing to the gate.
    curve = Curve(-1, 0)
    primes = good_odd_primes(curve, 10**6)
    assert map_chunks(lambda chunk: len(chunk), primes, 8, partial(record_cost, curve, False)) == [78497]
    assert fan_outs == []


def test_map_chunks_runs_in_process_without_fork(monkeypatch, fan_outs_forced):
    monkeypatch.delattr(os, "fork")
    assert map_chunks(lambda chunk: (os.getpid(), chunk), range(4), 2, lambda i: 1) == [(os.getpid(), [0, 1, 2, 3])]
    assert fan_outs_forced == []


def assert_no_child_left():
    # Every child has been reaped, so there is nothing left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fan_out_runs_chunks_in_children_and_reaps_them(fan_outs_forced):
    # fn need not pickle: a lambda reaches each child by fork; the first
    # chunk runs here.
    pids = map_chunks(lambda chunk: os.getpid(), range(6), 3, lambda i: 1)
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert fan_outs_forced == [3]
    assert_no_child_left()


def test_fan_out_reraises_a_chunk_error(fan_outs_forced):
    def fail_on(bad):
        def fn(chunk):
            if bad in chunk:
                raise KeyError(f"chunk from {chunk[0]}")
            return chunk

        return fn

    with pytest.raises(KeyError) as raised:  # in a child
        map_chunks(fail_on(4), range(6), 3, lambda i: 1)
    assert raised.value.args == ("chunk from 4",)
    assert_no_child_left()
    with pytest.raises(KeyError) as raised:  # here, while the children run
        map_chunks(fail_on(0), range(6), 3, lambda i: 1)
    assert raised.value.args == ("chunk from 0",)
    assert_no_child_left()


def test_fan_out_names_the_signal_that_killed_a_child(fan_outs_forced):
    def fn(chunk):
        if chunk[0] != 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk

    with pytest.raises(ChildProcessError, match="SIGKILL"):
        map_chunks(fn, range(4), 2, lambda i: 1)
    assert_no_child_left()


def test_fan_out_result_that_cannot_pickle_raises(fan_outs_forced):
    # Only results cross back from a child, so only they must pickle.
    with pytest.raises(Exception, match="pickle") as raised:
        map_chunks(lambda chunk: lambda: chunk, range(4), 2, lambda i: 1)
    assert isinstance(raised.value, (pickle.PicklingError, AttributeError, TypeError))
    assert_no_child_left()


def test_fan_out_kills_children_when_this_process_fails(fan_outs_forced):
    def fn(chunk):
        if chunk[0] == 0:
            raise ValueError("first chunk")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="first chunk"):
        map_chunks(fn, range(6), 3, lambda i: 1)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_fan_out_children_never_flush_inherited_stdout():
    # A pipe makes stdout block-buffered (unless PYTHONUNBUFFERED is set),
    # so "before" is still in the buffer each child inherits at fork.
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    code = ("from curvecount import sweep\nsweep.FORK_COST = 0\nprint('before')\n"
            "print(sweep.map_chunks(sum, range(6), 3, lambda i: 1))")
    done = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "before\n[1, 5, 9]\n", "")


def test_split_by_cost_cuts_equal_cost_on_weights_proportional_to_p():
    primes = sieve_primes(2000)
    for k in (2, 3, 5):
        chunks = split_by_cost(primes, primes, k)
        assert [p for chunk in chunks for p in chunk] == primes
        assert len(chunks) == k and all(chunks)
        for chunk in chunks:
            assert abs(sum(chunk) - sum(primes) / k) <= max(chunk)
    # Counting primes instead would put most of the work in the last chunk.
    low, high = split_by_cost(primes, primes, 2)
    assert len(low) > len(high)


def test_split_by_cost_keeps_every_chunk_nonempty():
    assert split_by_cost([1, 2, 3], [100, 0, 0], 3) == [[1], [2], [3]]
    assert split_by_cost([1, 2, 3], [0, 0, 100], 2) == [[1, 2], [3]]
    assert split_by_cost([1, 2, 3], [0, 0, 0], 2) == [[1], [2, 3]]


def test_map_chunks_rejects_workers_below_one():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            map_chunks(sum, range(10), workers, lambda i: 1)
