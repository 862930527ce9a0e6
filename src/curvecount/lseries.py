"""Partial Euler products 1/(1 - a_p p^-s + p^(1-2s)) over good primes.

Factors multiply in ascending p.  Floating products accumulate in log
space; the exact mode, for integer s, multiplies integer numerators and
denominators and forms one Fraction at the end.  The prime 2 never
contributes: the discriminant -16(4a^3 + 27b^2) is even for every
curve, so 2 is a bad prime throughout.

euler_factor, the one public factor, refuses a p that is not an odd
prime, an s the products refuse and an a_p outside the Hasse range.
The products trust their own primes and traces and check no factor.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .modmath import require_odd_prime
from .point_count import Curve, _nonsingular_discriminant, _trace_ap, prime_split


def _require_positive(s: float) -> None:
    """The one check on a float s: ValueError unless s > 0, so nan and every s <= 0 are refused."""
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")


def _denominator(p: int, a_p: int, s: float) -> float:
    """1 - a_p p^-s + p^(1-2s) as a float, for an integer a_p with a_p^2 < 4p.

    With x = p^-s it is 1 - a_p x + p x^2 >= 1 - a_p^2/4p >= 3/(4p):
    4p - a_p^2 is 3 mod 4 for odd a_p and a positive multiple of 4 for
    even a_p.  That is 7.5e-9 at p = 10^8, far above the rounding of
    terms that are at most about 2 near the minimum.
    """
    return 1.0 - a_p * float(p) ** -s + float(p) ** (1.0 - 2.0 * s)


def euler_factor(p: int, a_p: int, s: float) -> float:
    """One local factor (1 - a_p p^-s + p^(1-2s))^-1 as a float.

    Raises ValueError unless p is an odd prime, s > 0 and a_p is an int
    with a_p^2 < 4p, the Hasse range that keeps the denominator positive.
    """
    require_odd_prime(p)
    _require_positive(s)
    if not isinstance(a_p, int) or a_p * a_p >= 4 * p:
        raise ValueError(f"a_p = {a_p!r} at p = {p} is not an integer with a_p^2 < 4p")
    return 1.0 / _denominator(p, a_p, s)


class EulerEvaluation(namedtuple("EulerEvaluation", "s prime_bound log_value value factor_count skipped_primes")):
    """A truncated Euler product evaluated at real s > 0.

    value is exp(log_value) by construction.  factor_count is the
    number of good odd primes <= prime_bound; skipped_primes lists the
    primes <= prime_bound dividing the discriminant, 2 always among
    them once prime_bound reaches it.
    """

    __slots__ = ()


def partial_L(curve: Curve, s: float, limit: int) -> EulerEvaluation:
    """Product of local factors over the good odd primes <= limit.

    One log-subtraction per prime, strictly ascending, so equal inputs
    reproduce bit-identical results no matter how the underlying a_p
    were obtained.  An empty prime range gives the empty product 1.
    """
    _require_positive(s)
    primes, skipped = prime_split(curve, limit)
    log_value = 0.0
    for p in primes:
        log_value -= math.log(_denominator(p, _trace_ap(curve, p).a_p, s))
    return EulerEvaluation(float(s), limit, log_value, math.exp(log_value), len(primes), skipped)


class ExactEulerEvaluation(namedtuple("ExactEulerEvaluation", "s prime_bound value factor_count skipped_primes")):
    """A truncated Euler product evaluated exactly at integer s >= 1.

    value is a Fraction; factor_count and skipped_primes are as in
    EulerEvaluation.
    """

    __slots__ = ()


def partial_L_exact(curve: Curve, s: int, limit: int) -> ExactEulerEvaluation:
    """Exact truncated product for integer s >= 1, from one sieve.

    Each factor is p^(2s-1) / (p^(2s-1) - a_p p^(s-1) + 1).  The
    numerators multiply to one power, (prod p)^(2s-1); the denominators
    multiply as integers, and the quotient reduces once, at the end.
    The denominator needs no guard: |a_p| < 2 sqrt(p) keeps it above
    (p^(s-1/2) - 1)^2, which is positive.  The d = 1 minus twist at
    s = 1 up to limit 7 comes out to (3/4)(5/8)(7/8) = 105/256.
    """
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ValueError(f"exact mode needs an integer s >= 1, got {s!r}")
    from fractions import Fraction  # kept off the import path of the float products

    primes, skipped = prime_split(curve, limit)
    denominator = 1
    for p in primes:
        q = p ** (s - 1)
        denominator *= q * q * p - _trace_ap(curve, p).a_p * q + 1
    return ExactEulerEvaluation(s, limit, Fraction(math.prod(primes) ** (2 * s - 1), denominator), len(primes), skipped)


class RatioEvaluation(namedtuple("RatioEvaluation", "s prime_bound primes factors ratio")):
    """Factorwise quotient of two truncated products at the same s.

    primes[i] and factors[i] pair up; ratio is their running product.
    """

    __slots__ = ()


def ratio_partial(top: Curve, bottom: Curve, s: float, limit: int) -> RatioEvaluation:
    """Quotient of partial products over primes good for both curves.

    A prime where the two traces agree contributes exactly 1.0, since
    x / x is 1.0 for any finite nonzero float x.  A curve against itself
    is therefore identically 1, and for a twist pair every p = 3 (mod 4)
    factor is pinned to 1.0: both traces vanish there, so the quotient
    carries information only at p = 1 (mod 4).
    """
    _require_positive(s)
    delta_bottom = _nonsingular_discriminant(bottom)
    primes = tuple(p for p in prime_split(top, limit)[0] if delta_bottom % p != 0)
    factors = []
    ratio = 1.0
    for p in primes:
        a_top = _trace_ap(top, p).a_p
        a_bottom = _trace_ap(bottom, p).a_p
        factor = (1.0 / _denominator(p, a_top, s)) / (1.0 / _denominator(p, a_bottom, s))
        factors.append(factor)
        ratio *= factor
    return RatioEvaluation(float(s), limit, primes, tuple(factors), ratio)
