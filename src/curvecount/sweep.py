"""The one parallel fan-out every sweep uses."""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

# What starting a process pool costs, in the unit of every caller's cost
# model: one element of a brute-force point count (one x of
# point_count._count_affine; the sweeps ran at 175-320 ns an element).
# Fitted as the time a pool adds beyond half the in-process sweep, from
# alternating pairs of fresh CLI calls at --workers 1 and 2 (Python
# 3.11.7, 2 vCPUs): 16 fits over eight sweeps gave 10-200 ms, with
# quartiles of 304k, 486k and 651k elements.  They swing with whether the
# second vCPU is free: a pool at the margin then gains at most about
# 70 ms, and otherwise loses up to 140 ms, so the constant is the upper
# quartile.
POOL_START_COST = 650_000


def map_chunks(fn, items, workers: int, cost) -> list:
    """[fn(chunk) for each contiguous chunk of items], in chunk order.

    cost(item) estimates the item's in-process work in the unit of
    POOL_START_COST.  With total the summed cost, the items go to k
    chunks, k the largest count up to workers and len(items) for which
    a pool, at about total/k + POOL_START_COST, beats total in this
    process.  At k == 1 they run here as one chunk and no pool module is
    imported; otherwise k chunks of about equal cost (split_by_cost) run
    in one process pool, so fn and its results must pickle.  Merging the
    results in list order gives the same answer for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if not items:
        return []
    costs = [cost(item) for item in items]
    total = sum(costs)
    # total/k + POOL_START_COST falls as k grows, so if any k beats the
    # in-process total, the largest one does.
    k = min(workers, len(items))
    if k == 1 or total / k + POOL_START_COST >= total:
        return [fn(items)]
    import concurrent.futures  # loaded only when a pool starts

    with concurrent.futures.ProcessPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, split_by_cost(items, costs, k)))


def split_by_cost(items: list, costs: list, k: int) -> list[list]:
    """items cut into k contiguous, nonempty chunks of about equal cost.

    costs[i] is the cost of items[i], and 1 <= k <= len(items).  The cut
    before chunk j lands at the prefix whose cost is nearest j/k of the
    total, moved only as far as keeping every chunk nonempty needs.
    """
    prefix = list(accumulate(costs, initial=0))
    n = len(items)
    bounds = [0]
    for j in range(1, k):
        target = prefix[-1] * j / k
        i = bisect_left(prefix, target)  # the first prefix reaching the target
        if i > 0 and target - prefix[i - 1] < prefix[i] - target:
            i -= 1
        bounds.append(min(max(i, bounds[-1] + 1), n - k + j))
    bounds.append(n)
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
