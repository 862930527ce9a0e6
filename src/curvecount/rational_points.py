"""Exact rational points on y^2 = x^3 - d^2 x from Pythagorean data.

A right triangle with legs hem, h(m^2 - e^2)/2 and hypotenuse
h(m^2 + e^2)/2 feeds the parametrization d = (k/2j)^2 (m^2 - e^2)/(em),
which in turn pins two rational points with y = (k/j) x.  Everything in
this module is Fraction arithmetic; there is no tolerance anywhere, a
point is either on its curve or the construction is rejected.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import compress, count
from math import gcd, isqrt

from .errors import TangentUndefinedError
from .modmath import _is_qr, is_prime
from .sweep import map_chunks


class RationalPoint(namedtuple("RationalPoint", "x y")):
    """Exact rational coordinates, as Fractions; producers check the curve equation."""

    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(cls, Fraction(x), Fraction(y))

    def on_curve(self, a, b=0) -> bool:
        """Whether y^2 = x^3 + ax + b holds exactly (a, b may be rational)."""
        return self.y * self.y == self.x**3 + a * self.x + b


class ParamQuadruple(namedtuple("ParamQuadruple", "k j m e")):
    """(k, j, m, e) with beta = k/j over the coprime leg pair m > e."""

    __slots__ = ()

    def __new__(cls, k: int, j: int, m: int, e: int):
        if k < 1 or j < 1:
            raise ValueError(f"k and j must be >= 1, got k={k}, j={j}")
        if not m > e >= 1:
            raise ValueError(f"need m > e >= 1, got m={m}, e={e}")
        if gcd(m, e) != 1:
            raise ValueError(f"m and e must be coprime, got m={m}, e={e}")
        return super().__new__(cls, k, j, m, e)


def pythagorean_from_param(h: int, m: int, e: int) -> tuple[int, int, int]:
    """The triple (hem, h(m^2 - e^2)/2, h(m^2 + e^2)/2).

    m^2 - e^2 and m^2 + e^2 share parity, so one evenness check covers
    both halved legs.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if not m > e >= 1:
        raise ValueError(f"need m > e >= 1, got m={m}, e={e}")
    if h * (m * m - e * e) % 2 != 0:
        raise ValueError(f"h(m^2 - e^2) must be even, got h={h}, m={m}, e={e}")
    a = h * e * m
    b = h * (m * m - e * e) // 2
    c = h * (m * m + e * e) // 2
    assert a * a + b * b == c * c
    return a, b, c


def d_from_param(q: ParamQuadruple) -> Fraction:
    """d = (k/2j)^2 (m^2 - e^2)/(em), the twist the quadruple lands on."""
    return Fraction(q.k, 2 * q.j) ** 2 * Fraction(q.m * q.m - q.e * q.e, q.e * q.m)


def points_from_param(q: ParamQuadruple) -> tuple[Fraction, RationalPoint, RationalPoint]:
    """(d, p1, p2) with p_i on y^2 = x^3 - d^2 x exactly.

    x1 = d(m+e)/(m-e), x2 = -d(m-e)/(m+e), y = (k/j) x for both.  The
    minus sign on x2 comes from checking the curve equation: for the
    (4, 1, 2, 1) instance x2 = -2 gives y^2 = 64 while +2 gives -64.
    Both memberships are algebraic identities in (k, j, m, e), so the
    asserts can only fire on an implementation bug.
    """
    d = d_from_param(q)
    beta = Fraction(q.k, q.j)
    x1 = d * (q.m + q.e) / (q.m - q.e)
    x2 = -d * (q.m - q.e) / (q.m + q.e)
    a = -d * d
    p1 = RationalPoint(x1, beta * x1)
    p2 = RationalPoint(x2, beta * x2)
    assert p1.on_curve(a) and p2.on_curve(a)
    return d, p1, p2


def double_point_rational(curve: "Curve", point: RationalPoint) -> RationalPoint:
    """Tangent-line duplication: S = (a + 3x^2)/(2y), x' = S^2 - 2x.

    curve is a point_count.Curve, or anything with its a and b; the
    annotation is a string so that importing this module does not load
    point_count.

    y' = y + S(x' - x) is the tangent's third intersection with the
    curve, not its mirror; doubling twice therefore alternates the sign
    convention but stays on the curve, which is all that matters here.
    """
    if not point.on_curve(curve.a, curve.b):
        raise ValueError(f"{point} is not on y^2 = x^3 + {curve.a}x + {curve.b}")
    if point.y == 0:
        raise TangentUndefinedError(f"vertical tangent at x = {point.x}")
    s = (curve.a + 3 * point.x**2) / (2 * point.y)
    x = s * s - 2 * point.x
    result = RationalPoint(x, point.y + s * (x - point.x))
    assert result.on_curve(curve.a, curve.b)
    return result


def _qualifying_pairs(d: int, bound: int):
    """(m, e, beta) for coprime m > e >= 1, m <= bound, beta^2 = 4d em/(m^2 - e^2).

    beta^2 (m^2 - e^2)^2 is the integer t = 4d em(m^2 - e^2), d times the
    triangle's area up to a square factor (the congruent-number
    condition).  So beta is rational exactly when t is a perfect square,
    and then beta = isqrt(t)/(m^2 - e^2).

    Few pairs can pass.  For coprime m > e, any two of e, m, m - e and
    m + e have a gcd dividing 2, so an odd prime q not dividing d
    divides at most one of them, and divides t exactly as often as that
    one; t square forces the exponent even.  Hence each of the four has
    a squarefree part dividing 2d: it is delta a^2 with delta | 2d.
    Those numbers up to 2 bound are marked (d is never factored, and a
    delta that is not squarefree only marks again what its squarefree
    part marked), and only pairs whose four numbers are all marked reach
    the exact isqrt test, m ascending, then e.
    """
    two_d, top = 2 * d, 2 * bound
    shaped = bytearray(top + 1)
    for delta in range(1, top + 1):
        if two_d % delta == 0:
            for a in range(1, isqrt(top // delta) + 1):
                shaped[delta * a * a] = 1
    candidates = [n for n in range(1, bound + 1) if shaped[n]]
    for i, m in enumerate(candidates):
        for e in candidates[:i]:
            if shaped[m - e] and shaped[m + e] and gcd(m, e) == 1:
                leg = m * m - e * e
                t = 4 * d * e * m * leg
                root = isqrt(t)
                if root * root == t:
                    yield m, e, Fraction(root, leg)


def find_points_for_d(d: int, bound: int) -> list[RationalPoint]:
    """Search coprime (m, e), m <= bound, for points on y^2 = x^3 - d^2 x.

    A pair qualifies iff 4d em/(m^2 - e^2) is a rational square; both
    branches and both y signs are emitted, deduplicated, sorted by the
    x coordinate's (numerator, denominator).  An empty result certifies
    nothing beyond the bound searched.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    found = {}
    for m, e, beta in _qualifying_pairs(d, bound):
        twist, p1, p2 = points_from_param(ParamQuadruple(beta.numerator, beta.denominator, m, e))
        assert twist == d
        for point in (p1, p2, RationalPoint(p1.x, -p1.y), RationalPoint(p2.x, -p2.y)):
            found[(point.x, point.y)] = point
    return sorted(
        found.values(),
        key=lambda p: (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator),
    )


def lemma11_applicable(d: int) -> bool:
    """Whether d is an odd prime with -1 and 2 both nonresidues mod d.

    Tests the two memberships directly rather than the equivalent
    d = 3 (mod 8) shortcut.
    """
    if not is_prime(d) or d == 2:
        return False
    return not _is_qr(-1, d) and not _is_qr(2, d)


def lemma11_exhaustive(d: int, bound: int) -> list[ParamQuadruple]:
    """All quadruples with m <= bound admitting a rational beta for d.

    For applicable d (see lemma11_applicable) the expectation is an
    empty list; a nonempty result there is a finding, reported by the
    caller, not an exception here.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return [
        ParamQuadruple(beta.numerator, beta.denominator, m, e) for m, e, beta in _qualifying_pairs(d, bound)
    ]


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


def _collision_groups(bound: int, coprime_only: bool, slices: list[tuple[int, int]]) -> list[CollisionGroup]:
    """The groups with V in the given ascending, contiguous [lo, hi) slices; the unit of worker work.

    V increases in m for fixed e, so next_m[e], the least m with V(e, m)
    in or past the current slice, only moves forward, and a slice is
    one run of m per e.  A slice collects its values of V alone, e
    ascending, and ends[e - 1] marks where e's run of values ends.  Only
    a value that repeats has its pairs found: its e by where it lies in
    the values, and its m by bisection in e's run.
    """
    ms = range(bound + 1)
    next_m = [bisect_left(ms, slices[0][0], e + 1, key=lambda m: e * m * (m + e) ** 2) for e in range(bound)]
    out = []
    for _, hi in slices:
        starts = next_m.copy()
        vs, ends = [], []
        for e in range(1, bound):
            m = next_m[e]
            while m <= bound and (v := e * m * (m + e) ** 2) < hi:
                if not coprime_only or gcd(e, m) == 1:
                    vs.append(v)
                m += 1
            next_m[e] = m
            ends.append(len(vs))
        # Every slice counts its values, whether or not one repeats, so
        # slices of equal size take equal time.
        repeated = {v for v, n in Counter(vs).items() if n > 1}
        members = {}
        for i in compress(count(), map(repeated.__contains__, vs)):
            e = bisect_right(ends, i) + 1
            m = bisect_left(ms, vs[i], starts[e], next_m[e], key=lambda m: e * m * (m + e) ** 2)
            members.setdefault(vs[i], []).append((e, m))
        for v in sorted(members):
            group = tuple(members[v])
            out.append(CollisionGroup(v, group, tuple(e * m * (m * m - e * e) for e, m in group), v))
    return out


def collision_search(bound: int, workers: int = 1, coprime_only: bool = True) -> list[CollisionGroup]:
    """All V = em(m+e)^2 values hit by >= 2 pairs with 1 <= e < m <= bound.

    coprime_only keeps the gcd(e, m) = 1 normalization; pass False to
    search the unrestricted lattice.  The V axis is cut at every eighth
    value of a grid sample of V (steps of isqrt(bound) in e and m), so a
    slice holds 8 points of the sample; the pairs it holds vary (26 to
    6,254 coprime pairs over the 71 slices at bound 1000).  One slice's
    values of V are held at a time, and workers take contiguous runs of
    about equally many slices, which balance because each run spans many
    slices: the two runs at bound 1000 hold 154,633 and 149,558 pairs.
    No group straddles a cut, so the output is sorted by V, members in
    (e, m) order, for any workers.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    step = isqrt(bound)
    cuts = sorted(e * m * (m + e) ** 2 for e in range(1, bound, step) for m in range(e + 1, bound + 1, step))[8::8]
    slices = list(zip([0] + cuts, cuts + [(2 * bound) ** 4]))  # V < bound^2 (2 bound)^2
    # Slices are priced alike, since a run of many of them evens out their
    # sizes: 10-13 brute-force count elements per unit of bound, 12-25
    # without coprime_only (per-slice timings at bounds 100 to 2000).
    parts = map_chunks(partial(_collision_groups, bound, coprime_only), slices, workers, lambda _: 15 * bound)
    return [group for part in parts for group in part]
