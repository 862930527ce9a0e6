from functools import partial

import pytest

from curvecount.modmath import sieve_primes
from curvecount.point_count import Curve, good_odd_primes, record_cost
from curvecount.sweep import POOL_START_COST, map_chunks, split_by_cost


def test_map_chunks_keeps_chunk_order(pool_forced):
    # chunks are contiguous, cut by cost, and come back in order
    assert map_chunks(list, range(7), 2, lambda i: 1) == [[0, 1, 2, 3], [4, 5, 6]]
    assert map_chunks(sum, range(1, 11), 2, lambda i: i) == [28, 27]
    assert map_chunks(list, range(10), 3, lambda i: 1) == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]]
    assert pool_forced == [2, 2, 3]


def test_map_chunks_runs_in_process_below_the_gate(pool_starts):
    # a lambda cannot be pickled, so these calls only pass without a pool
    assert map_chunks(lambda chunk: chunk, [1, 2, 3, 4, 5], 3, lambda i: 1) == [[1, 2, 3, 4, 5]]
    assert map_chunks(lambda chunk: chunk, range(5), 1, lambda i: 10 * POOL_START_COST) == [[0, 1, 2, 3, 4]]
    assert map_chunks(lambda chunk: chunk, [7], 4, lambda i: 10 * POOL_START_COST) == [[7]]
    assert map_chunks(lambda chunk: chunk, [], 4, lambda i: 1) == []
    assert pool_starts == []


def test_map_chunks_gate_threshold(pool_starts):
    # Two workers pay when total/2 + POOL_START_COST < total, that is when
    # the total exceeds twice the start cost.
    assert map_chunks(lambda chunk: chunk, [1, 2], 2, lambda i: POOL_START_COST) == [[1, 2]]
    assert map_chunks(list, [1, 2], 2, lambda i: POOL_START_COST + 1) == [[1], [2]]
    assert pool_starts == [2]


def test_map_chunks_gate_takes_the_largest_worker_count(pool_starts):
    # A total of 1.8 start costs does not pay at two workers but does at
    # three, so three workers start.
    cost = 0.6 * POOL_START_COST
    assert map_chunks(lambda chunk: chunk, [1, 2, 3], 2, lambda i: cost) == [[1, 2, 3]]
    assert map_chunks(list, [1, 2, 3], 3, lambda i: cost) == [[1], [2], [3]]
    assert pool_starts == [3]


def test_closed_form_traces_start_no_pool(pool_starts):
    # A closed-form record takes about as long to compute as to pickle back
    # from a worker, so 78,497 of them cost nothing to the gate; the lambda
    # cannot be pickled, so the call only passes in process.
    curve = Curve(-1, 0)
    primes = good_odd_primes(curve, 10**6)
    assert map_chunks(lambda chunk: len(chunk), primes, 8, partial(record_cost, curve, False)) == [78497]
    assert pool_starts == []


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
