"""Exact rational points on y^2 = x^3 - d^2 x from Pythagorean data.

A right triangle with legs hem, h(m^2 - e^2)/2 and hypotenuse
h(m^2 + e^2)/2 feeds the parametrization d = (k/2j)^2 (m^2 - e^2)/(em),
which in turn pins two rational points with y = (k/j) x.  The points
are Fraction arithmetic; there is no tolerance anywhere, a point is
either on its curve or the construction is rejected.  The pair search
behind find_points_for_d and lemma11_exhaustive is integer arithmetic,
so fractions loads only once a point or a twist is built.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .errors import TangentUndefinedError
from .modmath import _is_qr, is_prime


class RationalPoint(namedtuple("RationalPoint", "x y")):
    """Exact rational coordinates, as Fractions; producers check the curve equation."""

    __slots__ = ()

    def __new__(cls, x, y):
        from fractions import Fraction

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


def d_from_param(q: ParamQuadruple) -> __import__("fractions").Fraction:
    """d = (k/2j)^2 (m^2 - e^2)/(em), the twist the quadruple lands on."""
    from fractions import Fraction

    return Fraction(q.k, 2 * q.j) ** 2 * Fraction(q.m * q.m - q.e * q.e, q.e * q.m)


def points_from_param(q: ParamQuadruple) -> tuple[__import__("fractions").Fraction, RationalPoint, RationalPoint]:
    """(d, p1, p2) with p_i on y^2 = x^3 - d^2 x exactly.

    x1 = d(m+e)/(m-e), x2 = -d(m-e)/(m+e), y = (k/j) x for both.  The
    minus sign on x2 comes from checking the curve equation: for the
    (4, 1, 2, 1) instance x2 = -2 gives y^2 = 64 while +2 gives -64.
    Both memberships are algebraic identities in (k, j, m, e), so the
    asserts can only fire on an implementation bug.
    """
    from fractions import Fraction

    d = d_from_param(q)
    beta = Fraction(q.k, q.j)
    x1 = d * (q.m + q.e) / (q.m - q.e)
    x2 = -d * (q.m - q.e) / (q.m + q.e)
    a = -d * d
    p1 = RationalPoint(x1, beta * x1)
    p2 = RationalPoint(x2, beta * x2)
    assert p1.on_curve(a) and p2.on_curve(a)
    return d, p1, p2


def double_point_rational(
    curve: __import__("curvecount.point_count").point_count.Curve, point: RationalPoint
) -> RationalPoint:
    """Tangent-line duplication: S = (a + 3x^2)/(2y), x' = S^2 - 2x.

    curve is a point_count.Curve, or anything with its a and b; the
    annotation loads point_count only when it is evaluated, so importing
    this module does not.

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
    """(m, e, k, j) for coprime m > e >= 1, m <= bound, beta^2 = 4d em/(m^2 - e^2).

    beta^2 (m^2 - e^2)^2 is the integer t = 4d em(m^2 - e^2), d times the
    triangle's area up to a square factor (the congruent-number
    condition).  So beta is rational exactly when t is a perfect square,
    and then beta = isqrt(t)/(m^2 - e^2), which is k/j in lowest terms.

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
    for delta in range(1, min(two_d, top) + 1):
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
                    g = gcd(root, leg)
                    yield m, e, root // g, leg // g


def find_points_for_d(d: int, bound: int) -> list[RationalPoint]:
    """Search coprime (m, e), m <= bound, for points on y^2 = x^3 - d^2 x.

    The pairs are lemma11_exhaustive's: a pair qualifies iff
    4d em/(m^2 - e^2) is a rational square.  For each, both
    branches and both y signs are emitted, deduplicated, sorted by the
    x coordinate's (numerator, denominator).  An empty result certifies
    nothing beyond the bound searched.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    found = {}
    for quadruple in lemma11_exhaustive(d, bound):
        twist, p1, p2 = points_from_param(quadruple)
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
    return [ParamQuadruple(k, j, m, e) for m, e, k, j in _qualifying_pairs(d, bound)]
