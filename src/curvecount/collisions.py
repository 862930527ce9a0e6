"""Integer x-values shared by several minus twists y^2 = x^3 - d^2 x.

A pair 1 <= e < m with d = em(m^2 - e^2) puts the point
(V, 2 e^2 m^2 (m+e)^2), V = em(m+e)^2, on its curve, so pairs sharing
one V give one x-value on several curves of the family.  The search
is integer arithmetic throughout and loads no fractions.

It rests on one lemma.  Write em = s k^2 with s squarefree and n = e + m,
so V = s (kn)^2: pairs sharing V share s and K = kn, and no two of them
share k, since equal k gives equal n and equal em.  Let k1 be the least
k of a group and k2 >= k1 + 1 that of any other member.  By AM-GM,
n2^2 > 4 e2 m2 = 4 s k2^2, and n2 = K / k2, so K^2 > 4 s k2^4; with
K = k1 n1 and s k1^2 = e1 m1 that reads

    n1^2 k1^4 > 4 k2^4 e1 m1 >= 4 (k1 + 1)^4 e1 m1,

the least-k test.  So every group has a member that passes it, and from
that member every other one is a k2 > k1 dividing K with 4 s k2^4 < K^2
whose n2 = K / k2 makes n2^2 - 4 s k2^2 = (m2 - e2)^2 a square.  The
search finds each pair that passes the test and looks for its partners;
a group reached from several of its members is their union.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import partial
from math import gcd, isqrt

from .sweep import map_chunks


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


def _least_k_groups(bound: int, coprime_only: bool, classes: list[list[int]], items: list[tuple]) -> dict:
    """{V: the pairs sharing V} found from the pairs of items that pass the least-k test.

    An item (g, a, b) stands for the pairs g (e, m) with gcd(e, m) = 1,
    sq(e) = a and sq(m) = b; classes[a] lists the x with sq(x) = a,
    ascending.  Such a pair has s = em / (ab)^2, k = g a b and n =
    g (e + m), and the test, n^2 k^4 > 4 (k + 1)^4 g^2 em, is the
    quadratic k^4 m^2 - q e m + k^4 e^2 > 0 in m: true past its larger
    root, so the least passing m of each e is one isqrt and a bisection
    of classes[b], and it grows with e, so the walk up e ends at the
    first e with no passing m <= bound // g.  Each passing pair is then
    checked exactly against every k2 the lemma leaves.
    """
    found = {}
    for g, a, b in items:
        k = g * a * b
        k4, ab2, kg = k**4, (a * b) ** 2, k * g
        q = 4 * (k + 1) ** 4 - 2 * k4
        quad_disc, den = q * q - 4 * k4 * k4, 2 * k4
        ms = classes[b]
        hi = bisect_right(ms, bound // g)
        top = ms[hi - 1]
        for e in classes[a]:
            least = (e * q + isqrt(e * e * quad_disc)) // den + 1
            if least > top:
                break
            for m in ms[bisect_left(ms, least, 0, hi) : hi]:
                if gcd(e, m) != 1:
                    continue
                s4, big_k = 4 * (e * m // ab2), kg * (e + m)
                # The partners' k: k < k2 <= the integer fourth root of (K^2 - 1) / 4s.
                for k2 in range(k + 1, isqrt(isqrt((big_k * big_k - 1) // s4)) + 1):
                    if big_k % k2:
                        continue
                    n2 = big_k // k2
                    disc = n2 * n2 - s4 * k2 * k2
                    t = isqrt(disc)
                    e2, m2 = (n2 - t) // 2, (n2 + t) // 2
                    if t * t == disc and m2 <= bound and (not coprime_only or gcd(e2, m2) == 1):
                        v = s4 * big_k * big_k // 4
                        found.setdefault(v, set()).update(((g * e, g * m), (e2, m2)))
    return found


def collision_search(bound: int, workers: int = 1, coprime_only: bool = True) -> list[CollisionGroup]:
    """All V = em(m+e)^2 values hit by >= 2 pairs with 1 <= e < m <= bound.

    coprime_only keeps the gcd(e, m) = 1 normalization; pass False to
    search the unrestricted lattice, whose pairs are g (e, m) for every
    scale g and coprime (e, m) <= bound // g.  The items are the scales
    and class pairs (g, sq(e), sq(m)); map_chunks cuts them into batches
    and gives each worker a fixed share, and the groups the batches
    report are merged by V, so the output is sorted by V, members in
    (e, m) order, for any workers.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    # sq[x] = the largest j with j^2 | x: slice assignment at the
    # multiples of j^2, j ascending, leaves the largest such j last.
    root, sq = isqrt(bound), [1] * (bound + 1)
    for j in range(2, root + 1):
        sq[j * j :: j * j] = [j] * (bound // (j * j))
    classes = [[] for _ in range(root + 1)]
    for x in range(1, bound + 1):
        classes[sq[x]].append(x)
    scales = [1] if coprime_only else range(1, bound // 2 + 1)
    items = [
        (g, a, b)
        for g in scales
        for a in range(1, isqrt(bound // g) + 1)
        for b in range(1, isqrt(bound // g) + 1)
        if gcd(a, b) == 1
    ]
    # Most passing pairs lie in the few class pairs of small a and b, so
    # the items are dealt into isqrt(bound) strands, each batch a mix.
    items = [item for j in range(root) for item in items[j::root]]
    found = {}
    for part in map_chunks(partial(_least_k_groups, bound, coprime_only, classes), items, workers):
        for v, members in part.items():
            found.setdefault(v, set()).update(members)
    groups = []
    for v in sorted(found):
        members = tuple(sorted(found[v]))
        groups.append(CollisionGroup(v, members, tuple(e * m * (m * m - e * e) for e, m in members), v))
    return groups
