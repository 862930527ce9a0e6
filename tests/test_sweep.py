import pytest

from curvecount.sweep import map_chunks


def test_map_chunks_keeps_chunk_order():
    # 10 items over 3 workers: chunks [0..3], [4..7], [8, 9], run in a pool
    assert map_chunks(sum, range(10), 3) == [6, 22, 17]
    assert map_chunks(list, range(7), 2) == [[0, 1, 2, 3], [4, 5, 6]]


def test_map_chunks_runs_in_process_below_two_items_per_worker():
    # a lambda cannot be pickled, so these calls only pass without a pool
    assert map_chunks(lambda chunk: chunk, [1, 2, 3, 4, 5], 3) == [[1, 2], [3, 4], [5]]
    assert map_chunks(lambda chunk: chunk, range(5), 1) == [[0, 1, 2, 3, 4]]
    assert map_chunks(lambda chunk: chunk, [], 4) == []


def test_map_chunks_rejects_workers_below_one():
    for workers in (0, -1):
        with pytest.raises(ValueError):
            map_chunks(sum, range(10), workers)
