"""The one parallel fan-out every sweep uses."""

from __future__ import annotations


def map_chunks(fn, items, workers: int) -> list:
    """[fn(chunk) for each of at most `workers` contiguous chunks of items].

    The chunks run in this process when workers == 1 or there are fewer
    than two items per worker, otherwise in one process pool (fn and its
    results must then pickle).  Results come back in chunk order either
    way, so merging them in list order gives the same answer for every
    worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    size = -(-len(items) // workers) or 1
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    if workers == 1 or len(items) < 2 * workers:
        return [fn(chunk) for chunk in chunks]
    import concurrent.futures  # loaded only when a pool starts

    with concurrent.futures.ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(fn, chunks))
