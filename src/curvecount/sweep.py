"""The one parallel fan-out every sweep uses."""

from __future__ import annotations

import os
from time import perf_counter

# Seconds of work left at which a fan-out pays, projected after each batch
# as its time times the batches left.  Brute counts grow with p, so early
# batches underestimate the rest: `lemma-verify --lemma 3 --limit 2000` took
# 0.485 s at 2 workers at 0.2 s, 0.411 s at 0.05 s (BENCH_fork_gate.json).
BREAK_EVEN = 0.05

# Batches per worker: each process takes the next batch when it is free,
# so more batches even out items of unequal cost.  At 2 workers
# `collisions --bound 2000` (1,207 class pairs) took 314, 323, 328, 324
# and 323 ms end to end at 1, 2, 4, 8 and 16 batches a worker (medians of
# 12 fresh runs, Python 3.11.7, 2 vCPUs, while two busy loops ran no
# faster than one), all within the runs' spread; at 1 the second batch
# runs in process, so extra batches cost nothing measurable.
BATCHES_PER_WORKER = 8


def map_chunks(fn, items, workers: int) -> list:
    """[fn(batch) for each contiguous batch of items], in batch order.

    With k = min(workers, len(items)), the items run here as one batch
    at k == 1 or where the platform has no os.fork.  Otherwise they are
    cut into min(len(items), BATCHES_PER_WORKER * workers) contiguous
    batches of near-equal count, and the batches run here, in order,
    until more than one is left and the last one's time times the
    number left exceeds BREAK_EVEN.  The rest then goes to min(workers,
    left) processes, this one and forked children, which each take the
    next batch off one shared queue until it is empty, so fn need not
    pickle but its results must.  An exception raised by fn in a child
    is raised here; a child that dies without a result raises
    ChildProcessError.  Either way, and on success, every child has
    ended and been reaped on return.  Merging the results in list order
    gives the same answer for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if not items:
        return []
    if min(workers, len(items)) == 1 or not hasattr(os, "fork"):
        return [fn(items)]
    n, count = len(items), min(len(items), BATCHES_PER_WORKER * workers)
    batches = [items[n * j // count : n * (j + 1) // count] for j in range(count)]
    results = []
    for done, batch in enumerate(batches, 1):
        start = perf_counter()
        results.append(fn(batch))
        left = count - done
        if left > 1 and (perf_counter() - start) * left > BREAK_EVEN:
            return results + _fan_out(fn, batches[done:], min(workers, left))
    return results


def _fan_out(fn, batches: list[list], processes: int) -> list:
    """[fn(batch) for batch in batches], run by this process and processes - 1 forked children.

    Every process takes batch indices off one queue pipe until it is
    empty.  The indices, 2 bytes each, are written in one write before
    the first fork and the write end is closed, so the write never
    blocks (1 KiB at 64 workers, far below a pipe's buffer), each
    2-byte read takes one whole index, and every process reads EOF once
    the queue is empty.
    """
    import pickle  # here, before the first fork, so that no child spends its time loading it

    queue, write_end = os.pipe()
    with open(write_end, "wb") as pipe:
        pipe.write(b"".join(i.to_bytes(2, "little") for i in range(len(batches))))
    children = []  # (pid, read end of the pipe the child's results come back on)
    try:
        for _ in range(processes - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _run_child(fn, batches, queue, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results = _take_batches(fn, batches, queue)
        while children:
            pid, read_end = children.pop(0)
            try:
                with open(read_end, "rb") as pipe:
                    payload = pipe.read()
            finally:
                status = os.waitpid(pid, 0)[1]
            results.update(_child_result(pid, status, payload))
        return [results[i] for i in range(len(batches))]
    finally:
        os.close(queue)
        # Left only when fn or a child failed, so the other results are not wanted.
        for pid, read_end in children:
            import signal

            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _take_batches(fn, batches: list[list], queue: int) -> dict:
    """{index: fn(batches[index])} for each index this process reads off the queue pipe."""
    results = {}
    while index := os.read(queue, 2):
        i = int.from_bytes(index, "little")
        results[i] = fn(batches[i])
    return results


def _run_child(fn, batches: list[list], queue: int, write_end: int):
    """Send pickle.dumps((True, _take_batches(...))), or (False, the exception), and end the process.

    The child leaves by os._exit, so it runs no exit handler and never
    flushes the stdio buffers it inherited from the parent.
    """
    status = 1
    try:
        import pickle

        try:
            payload = pickle.dumps((True, _take_batches(fn, batches, queue)))
        except BaseException as exc:  # the parent raises it
            payload = pickle.dumps((False, exc))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _child_result(pid: int, status: int, payload: bytes):
    """The results a child sent, given its wait status and the bytes it wrote."""
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
