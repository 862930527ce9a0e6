"""Exact rational points on y^2 = x^3 - d^2 x from Pythagorean data.

A right triangle with legs hem, h(m^2 - e^2)/2 and hypotenuse
h(m^2 + e^2)/2 feeds the parametrization d = (k/2j)^2 (m^2 - e^2)/(em),
which in turn pins two rational points with y = (k/j) x.  Everything in
this module is Fraction arithmetic; there is no tolerance anywhere, a
point is either on its curve or the construction is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt

from .errors import TangentUndefinedError
from .modmath import is_prime, legendre_symbol
from .point_count import Curve
from .sweep import map_chunks


@dataclass(frozen=True)
class RationalPoint:
    """Exact rational coordinates; producers check the curve equation."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def on_curve(self, a, b=0) -> bool:
        """Whether y^2 = x^3 + ax + b holds exactly (a, b may be rational)."""
        return self.y * self.y == self.x**3 + a * self.x + b


@dataclass(frozen=True)
class ParamQuadruple:
    """(k, j, m, e) with beta = k/j over the coprime leg pair m > e."""

    k: int
    j: int
    m: int
    e: int

    def __post_init__(self):
        if self.k < 1 or self.j < 1:
            raise ValueError(f"k and j must be >= 1, got k={self.k}, j={self.j}")
        if not self.m > self.e >= 1:
            raise ValueError(f"need m > e >= 1, got m={self.m}, e={self.e}")
        if gcd(self.m, self.e) != 1:
            raise ValueError(f"m and e must be coprime, got m={self.m}, e={self.e}")


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


def double_point_rational(curve: Curve, point: RationalPoint) -> RationalPoint:
    """Tangent-line duplication: S = (a + 3x^2)/(2y), x' = S^2 - 2x.

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
    """
    for m in range(2, bound + 1):
        for e in range(1, m):
            if gcd(m, e) != 1:
                continue
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
    a = -d * d
    found = {}
    for m, e, beta in _qualifying_pairs(d, bound):
        for x in (Fraction(d * (m + e), m - e), Fraction(-d * (m - e), m + e)):
            y = beta * x
            for point in (RationalPoint(x, y), RationalPoint(x, -y)):
                assert point.on_curve(a)
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
    return legendre_symbol(-1, d) == -1 and legendre_symbol(2, d) == -1


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


@dataclass(frozen=True)
class CollisionGroup:
    """Distinct coprime pairs sharing V = em(m+e)^2.

    The shared value is one x coordinate sitting on every member's
    curve y^2 = x^3 - d_i^2 x at once, with d_i = e_i m_i (m_i^2 -
    e_i^2): x = d_i (m_i+e_i)/(m_i-e_i) collapses to V member by
    member, and y_i = 2 e_i^2 m_i^2 (m_i+e_i)^2 closes the equation.
    """

    v: int
    members: tuple[tuple[int, int], ...]
    d_values: tuple[int, ...]
    shared_x: int

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a collision group needs at least two members")
        if len(set(self.members)) != len(self.members):
            raise ValueError("members must be distinct")
        if self.shared_x != self.v:
            raise ValueError(f"shared_x {self.shared_x} != v {self.v}")
        if len(self.d_values) != len(self.members):
            raise ValueError("d_values and members must pair up")
        for (e, m), d in zip(self.members, self.d_values):
            if e * m * (m + e) ** 2 != self.v:
                raise ValueError(f"({e}, {m}) does not share v = {self.v}")
            if d != e * m * (m * m - e * e):
                raise ValueError(f"wrong d for ({e}, {m}): {d}")
            y = 2 * e * e * m * m * (m + e) ** 2
            assert y * y == self.v**3 - d * d * self.v


def _collision_chunk(bound: int, coprime_only: bool, es: list[int]) -> dict[int, list[tuple[int, int]]]:
    """V -> members over the given e values; the unit of worker work."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for e in es:
        for m in range(e + 1, bound + 1):
            if coprime_only and gcd(e, m) != 1:
                continue
            groups.setdefault(e * m * (m + e) ** 2, []).append((e, m))
    return groups


def collision_search(bound: int, workers: int = 1, coprime_only: bool = True) -> list[CollisionGroup]:
    """All V = em(m+e)^2 values hit by >= 2 pairs with 1 <= e < m <= bound.

    coprime_only keeps the gcd(e, m) = 1 normalization; pass False to
    search the unrestricted lattice.  Grouping is a commutative merge
    keyed by V and the output is sorted by V with members in (e, m)
    order, so results are identical for any worker count.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    groups, *rest = map_chunks(partial(_collision_chunk, bound, coprime_only), range(1, bound), workers)
    # Fold the other chunks into the first one's dict, freeing each as it
    # goes: these dicts are the search's memory peak.
    while rest:
        for v, members in rest.pop().items():
            groups.setdefault(v, []).extend(members)
    out = []
    for v in sorted(groups):
        members = sorted(groups[v])
        if len(members) < 2:
            continue
        d_values = tuple(e * m * (m * m - e * e) for e, m in members)
        out.append(CollisionGroup(v, tuple(members), d_values, v))
    return out
