"""The one parallel fan-out every sweep uses."""

from __future__ import annotations

import os
from time import perf_counter

# Seconds of work left at which a fan-out pays, projected after each batch
# as its time times the batches left.  Brute counts grow with p, so early
# batches underestimate the rest: `lemma-verify --lemma 3 --limit 2000` took
# 0.485 s at 2 workers at 0.2 s, 0.411 s at 0.05 s (BENCH_fork_gate.json).
BREAK_EVEN = 0.05

# Batches per worker.  Process k of P runs every Pth batch from the kth,
# so where batch costs grow with the index the shares differ by at most
# one batch's cost, and more batches make one batch a smaller part of a
# share.  At 2 workers,
# 4, 8 and 16 batches a worker took 234, 225 and 213 ms, then 222, 199
# and 203 ms, on `collisions --bound 2000`, and 564, 553 and 571 ms, then
# 655, 622 and 592 ms, on `lemma-verify --lemma 3 --limit 8000` (medians
# of two sets of 15 and 20 alternating fresh runs, Python 3.11.7, 2 vCPUs,
# while two busy loops ran 0.79 to 2.42 times one loop's throughput),
# each within the runs' spread.
BATCHES_PER_WORKER = 8


def map_chunks(fn, items, workers: int) -> list:
    """[fn(batch) for each contiguous batch of items], in batch order.

    The items are cut into min(len(items), BATCHES_PER_WORKER * workers)
    contiguous batches of near-equal count, and the batches run here, in
    order.  After each one, where the platform has os.fork, the rest may
    go to min(workers, left) processes: this happens once that count is
    above 1 and the last batch's time times the number left exceeds
    BREAK_EVEN.  So one worker, or a platform without os.fork, never
    forks.  Of those P processes, this one is k = 0 and the forked
    children are k = 1 .. P - 1, and process k runs batches k, k + P,
    k + 2P, ... of those left, so fn need not pickle but its results
    must.  An exception raised by fn in a child is raised here; a child
    that dies without a result raises ChildProcessError.  Either way,
    and on success, every child has ended and been reaped on return.
    Merging the results in list order gives the same answer for every
    worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = list(items)
    n, count = len(items), min(len(items), BATCHES_PER_WORKER * workers)
    batches = [items[n * j // count : n * (j + 1) // count] for j in range(count)]
    forks = hasattr(os, "fork")
    results = []
    for done, batch in enumerate(batches, 1):
        start = perf_counter()
        results.append(fn(batch))
        processes = min(workers, count - done) if forks else 1
        if processes > 1 and (perf_counter() - start) * (count - done) > BREAK_EVEN:
            return results + _fan_out(fn, batches[done:], processes)
    return results


def _fan_out(fn, batches: list[list], processes: int) -> list:
    """[fn(batch) for batch in batches], run by this process and processes - 1 forked children.

    Process k runs batches[k::processes]: this process is k = 0 and the
    children are k = 1 .. processes - 1.  Where batch costs grow with
    the index, as brute counts grow with p, these interleaved shares
    differ by at most one batch's cost.
    """
    import pickle  # here, before the first fork, so that no child spends its time loading it

    results = [None] * len(batches)
    children = []  # (k, pid, read end of the pipe the child's results come back on)
    try:
        for k in range(1, processes):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _run_child(fn, batches[k::processes], write_end)
            os.close(write_end)
            children.append((k, pid, read_end))
        results[::processes] = [fn(batch) for batch in batches[::processes]]
        while children:
            k, pid, read_end = children.pop(0)
            try:
                with open(read_end, "rb") as pipe:
                    payload = pipe.read()
            finally:
                status = os.waitpid(pid, 0)[1]
            results[k::processes] = _child_result(pid, status, payload)
        return results
    finally:
        # Left only when fn or a child failed, so the other results are not wanted.
        for _, pid, read_end in children:
            import signal

            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(fn, batches: list[list], write_end: int):
    """Send pickle.dumps((True, [fn(batch) for batch in batches])), or (False, the exception), and end the process.

    The child leaves by os._exit, so it runs no exit handler and never
    flushes the stdio buffers it inherited from the parent.
    """
    status = 1
    try:
        import pickle

        try:
            payload = pickle.dumps((True, [fn(batch) for batch in batches]))
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
