"""Integer x-values shared by several minus twists y^2 = x^3 - d^2 x.

A pair 1 <= e < m with d = em(m^2 - e^2) puts the point
(V, 2 e^2 m^2 (m+e)^2), V = em(m+e)^2, on its curve, so pairs sharing
one V give one x-value on several curves of the family.  The search
is integer arithmetic throughout and loads no fractions.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import partial
from itertools import compress
from math import isqrt
from operator import mul

from .modmath import sieve_primes
from .sweep import map_chunks

# The V axis is cut at every SLICE_SAMPLES-th value of a grid sample of V.
# Fewer, larger slices cost less per run of m but hold more values at
# once.  Cut at every 8th, 10th, 12th and 16th value, `collisions --bound
# 1000` took 305, 291, 279 and 257 ms at --workers 1, and peaked at 16.00,
# 15.93, 16.06 and 16.10 MB RSS at --workers 2 (medians of 20 and 30 fresh
# runs, Python 3.11.7, 2 vCPUs).  10 has the lowest peak of the four.
SLICE_SAMPLES = 10


class CollisionGroup(namedtuple("CollisionGroup", "v members d_values shared_x")):
    """Distinct coprime pairs sharing V = em(m+e)^2.

    members holds the (e, m) pairs and d_values their d, in the same
    order.  The shared value is one x coordinate sitting on every
    member's curve y^2 = x^3 - d_i^2 x at once, with d_i = e_i m_i
    (m_i^2 - e_i^2): x = d_i (m_i+e_i)/(m_i-e_i) collapses to V member
    by member, and y_i = 2 e_i^2 m_i^2 (m_i+e_i)^2 closes the equation.
    """

    __slots__ = ()

    def __new__(cls, v: int, members: tuple, d_values: tuple, shared_x: int):
        if len(members) < 2:
            raise ValueError("a collision group needs at least two members")
        if len(set(members)) != len(members):
            raise ValueError("members must be distinct")
        if shared_x != v:
            raise ValueError(f"shared_x {shared_x} != v {v}")
        if len(d_values) != len(members):
            raise ValueError("d_values and members must pair up")
        for (e, m), d in zip(members, d_values):
            if e * m * (m + e) ** 2 != v:
                raise ValueError(f"({e}, {m}) does not share v = {v}")
            if d != e * m * (m * m - e * e):
                raise ValueError(f"wrong d for ({e}, {m}): {d}")
            y = 2 * e * e * m * m * (m + e) ** 2
            assert y * y == v**3 - d * d * v
        return super().__new__(cls, v, members, d_values, shared_x)


def _distinct_primes(bound: int) -> list[tuple[int, ...]]:
    """primes[e] = the distinct primes of e, ascending, for 0 <= e < bound.

    They are read off one table of smallest prime factors, written by
    slice assignment from the largest prime <= isqrt(bound) down to 2, so
    the smallest prime of each e is the one written last.
    """
    spf = list(range(bound))
    for q in reversed(sieve_primes(isqrt(bound))):
        spf[q * q :: q] = [q] * len(range(q * q, bound, q))
    primes = [()] * bound
    for e in range(2, bound):
        q = spf[e]
        rest = e // q
        while rest % q == 0:
            rest //= q
        primes[e] = (q, *primes[rest])
    return primes


def _advance(nxt: list[int], bound: int, low: int, top: int, hi: int) -> tuple[int, int, list[int]]:
    """Move the runs of V below hi: (low, top, starts) for the new window [low, top) of e.

    top rises to the least e with V(e, e + 1) >= hi, and low to the
    least e whose run is not exhausted.  starts holds nxt[e] for the
    window's e before the move; after it nxt[e] is the least m >= nxt[e]
    with m > bound or V(e, m) >= hi.  Past nxt[e], the least m reaching
    hi never grows with e, since V grows in e and in m, so one walk
    down e, moving m up, finds every end; V(e, e + 1) < hi keeps each
    end above e + 1, where the next e down may start.
    """
    while top < bound and top * (top + 1) * (2 * top + 1) ** 2 < hi:
        top += 1
    while low < top and nxt[low] > bound:
        low += 1
    starts = nxt[low:top]
    m = 0
    for e in range(top - 1, low - 1, -1):
        m = max(m, nxt[e])
        while m <= bound and e * m * (m + e) ** 2 < hi:
            m += 1
        nxt[e] = m
    return low, top, starts


def _collision_groups(
    bound: int, primes: list[tuple[int, ...]] | None, slices: list[tuple[int, int]]
) -> list[CollisionGroup]:
    """The groups with V in the given ascending, contiguous [lo, hi) slices; the unit of worker work.

    primes is _distinct_primes(bound) when only coprime pairs count,
    else None.  V grows in m for fixed e, so a slice holds one run of m
    per e of its window (see _advance).  A run's values are one C loop,
    V = (em)(m + e)^2 as map(mul) over a range of em and a slice of the
    squares; for coprime pairs both are first filtered through a mask
    of the run's m, zeroed at the multiples of each prime of e.  The
    values of V already seen in the slice are the ones that repeat.
    Only a repeated value has its pairs found, in a second pass over
    the slice's runs: its e by the runs that hold it, its m by
    bisection in that run.
    """
    ms = range(bound + 1)
    squares = [k * k for k in range(2 * bound + 1)]
    ones = bytearray(b"\x01") * bound
    nxt = list(range(1, bound + 1))  # nxt[e] = e + 1 until e's run starts
    low, top, _ = _advance(nxt, bound, 1, 1, slices[0][0])
    out = []
    for _, hi in slices:
        low, top, starts = _advance(nxt, bound, low, top, hi)
        seen, repeated, runs = set(), set(), []
        for e, s in zip(range(low, top), starts):
            t = nxt[e]
            ems, square = range(e * s, e * t, e), squares[s + e : t + e]
            if primes is not None:
                mask = ones[: t - s]
                for q in primes[e]:
                    j = -s % q
                    mask[j::q] = bytes(len(range(j, t - s, q)))
                ems, square = compress(ems, mask), compress(square, mask)
            run = list(map(mul, ems, square))
            if hits := seen.intersection(run):
                repeated |= hits
            seen.update(run)
            runs.append(run)
        members = {}
        if repeated:
            for e, s, run in zip(range(low, top), starts, runs):
                for v in repeated.intersection(run):
                    m = bisect_left(ms, v, s, nxt[e], key=lambda m: e * m * (m + e) ** 2)
                    members.setdefault(v, []).append((e, m))
        for v in sorted(members):
            group = tuple(members[v])
            out.append(CollisionGroup(v, group, tuple(e * m * (m * m - e * e) for e, m in group), v))
    return out


def collision_search(bound: int, workers: int = 1, coprime_only: bool = True) -> list[CollisionGroup]:
    """All V = em(m+e)^2 values hit by >= 2 pairs with 1 <= e < m <= bound.

    coprime_only keeps the gcd(e, m) = 1 normalization; pass False to
    search the unrestricted lattice.  The V axis is cut at every
    SLICE_SAMPLES-th value of a grid sample of V (steps of isqrt(bound)
    in e and m), so the cuts depend on the bound alone.  One slice's
    values of V are held at a time.  Workers take contiguous batches of
    about equally many slices off one queue, each the next batch as soon
    as it is free, so slices of uneven size still balance.  No group
    straddles a cut, so the output is sorted by V, members in (e, m)
    order, for any workers.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    step = isqrt(bound)
    sample = sorted(e * m * (m + e) ** 2 for e in range(1, bound, step) for m in range(e + 1, bound + 1, step))
    cuts = sample[SLICE_SAMPLES::SLICE_SAMPLES]
    slices = list(zip([0] + cuts, cuts + [(2 * bound) ** 4]))  # V < bound^2 (2 bound)^2
    primes = _distinct_primes(bound) if coprime_only else None
    parts = map_chunks(partial(_collision_groups, bound, primes), slices, workers)
    return [group for part in parts for group in part]
