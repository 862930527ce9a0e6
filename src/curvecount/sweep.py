"""The one parallel fan-out every sweep uses."""

from __future__ import annotations

import os
from bisect import bisect_left
from itertools import accumulate

# What a fork fan-out costs, in the unit of every caller's cost model:
# one element of a brute-force point count (one pass of
# point_count._count_affine's loop, which counts a pair x, -x and takes
# 0.95-0.99 times as long as one x of the single loop it replaced; the
# sweeps ran at 206-284 ns an element).
# Fitted as the time a fan-out of two adds beyond half the in-process
# sweep, from alternating pairs of fresh CLI calls at --workers 1 and 2
# (Python 3.11.7, 2 vCPUs): 20 fits over the ten benchmark sweeps whose
# cost is not 0 gave quartiles of 64k, 80k and 117k elements (45k, 86k
# and 104k before the byte-table kernels).  They swing with whether the
# second vCPU is free, so the constant sits near the upper quartile; it
# stays at 100k because a gate of 2 * 117k would keep in process the
# lemma 7 sweep (236k elements), which won 14 of its 20 pairs at 2 workers.
FORK_COST = 100_000


def map_chunks(fn, items, workers: int, cost) -> list:
    """[fn(chunk) for each contiguous chunk of items], in chunk order.

    cost(item) estimates the item's in-process work in the unit of
    FORK_COST.  With k = min(workers, len(items)), the items run here as
    one chunk, unpriced, at k == 1 or where the platform has no os.fork.
    Otherwise, with total the summed cost, they go to k chunks if a
    fan-out, at about total/k + FORK_COST, beats total in this process,
    and run here as one chunk if not.  The k chunks, of about equal cost
    (split_by_cost), run at once, chunk 0 in this process and each other
    chunk in a forked child, so fn need not pickle but its results must.
    An exception raised by fn in a child is raised here; a child that
    dies without a result raises ChildProcessError.  Either way, and on
    success, every child has ended and been reaped on return.  Merging
    the results in list order gives the same answer for every worker
    count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if not items:
        return []
    k = min(workers, len(items))
    if k == 1 or not hasattr(os, "fork"):
        return [fn(items)]
    costs = [cost(item) for item in items]
    total = sum(costs)
    # total/k + FORK_COST falls as k grows, so if any k beats the
    # in-process total, the largest one does.
    if total / k + FORK_COST >= total:
        return [fn(items)]
    return _fan_out(fn, split_by_cost(items, costs, k))


def _fan_out(fn, chunks: list[list]) -> list:
    """[fn(chunk) for chunk in chunks]: chunks[1:] each in a forked child, chunks[0] here."""
    import signal  # this, and pickle in the helpers, load only when a fan-out starts

    children = []  # (pid, read end of the pipe the child's result comes back on)
    try:
        for chunk in chunks[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _run_child(fn, chunk, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results = [fn(chunks[0])]
        while children:
            pid, read_end = children.pop(0)
            try:
                with open(read_end, "rb") as pipe:
                    payload = pipe.read()
            finally:
                status = os.waitpid(pid, 0)[1]
            results.append(_child_result(pid, status, payload))
        return results
    finally:
        # Left only when fn or a child failed, so the other results are not wanted.
        for pid, read_end in children:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(fn, chunk, write_end: int):
    """Send pickle.dumps((True, fn(chunk))), or (False, the exception), and end the process.

    The child leaves by os._exit, so it runs no exit handler and never
    flushes the stdio buffers it inherited from the parent.
    """
    status = 1
    try:
        import pickle

        try:
            payload = pickle.dumps((True, fn(chunk)))
        except BaseException as exc:  # the parent raises it
            payload = pickle.dumps((False, exc))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _child_result(pid: int, status: int, payload: bytes):
    """The result a child sent, given its wait status and the bytes it wrote."""
    import pickle
    import signal

    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise ChildProcessError(f"sweep worker {pid} was killed by {signal.Signals(-code).name}")
    if code or not payload:
        raise ChildProcessError(f"sweep worker {pid} exited with status {code}")
    ok, value = pickle.loads(payload)  # bytes our own child wrote
    if not ok:
        raise value
    return value


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
