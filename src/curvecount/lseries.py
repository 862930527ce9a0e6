"""Partial Euler products 1/(1 - a_p p^-s + p^(1-2s)) over good primes.

Factors multiply in ascending p.  Floating products accumulate in log
space; the exact mode keeps Fractions end to end for integer s.  The
prime 2 never contributes: the discriminant -16(4a^3 + 27b^2) is even
for every curve, so 2 is a bad prime throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularCurveError, VanishingFactorError
from .modmath import sieve_primes
from .point_count import Curve, trace_ap


def prime_split(curve: Curve, limit: int) -> tuple[list[int], tuple[int, ...]]:
    """(good, skipped) among the primes <= limit, from one sieve.

    good are the odd primes not dividing the discriminant, ascending;
    skipped are the primes dividing it, 2 always among them once limit
    reaches it.
    """
    delta = curve.discriminant()
    if delta == 0:
        raise SingularCurveError(f"singular curve {curve}")
    good, skipped = [], []
    for q in sieve_primes(limit):
        (skipped if delta % q == 0 else good).append(q)
    return good, tuple(skipped)


def _factor_denominator(p: int, a_p: int, s: float) -> float:
    return 1.0 - a_p * float(p) ** -s + float(p) ** (1.0 - 2.0 * s)


def euler_factor(p: int, a_p: int, s: float) -> float:
    """One local factor (1 - a_p p^-s + p^(1-2s))^-1 as a float.

    Any a_p in the Hasse range keeps the denominator positive for every
    s > 0 (it dominates (1 - p^(1/2-s))^2); the guard below only fires
    on out-of-range input.
    """
    denom = _factor_denominator(p, a_p, s)
    if denom <= 0.0:
        raise VanishingFactorError(p, f"denominator {denom} at s = {s}")
    return 1.0 / denom


def _check_exact_s(s: int) -> None:
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ValueError(f"exact mode needs an integer s >= 1, got {s!r}")


def euler_factor_exact(p: int, a_p: int, s: int) -> Fraction:
    """The same local factor as an exact Fraction, for integer s >= 1."""
    _check_exact_s(s)
    denom = 1 - Fraction(a_p, p**s) + Fraction(1, p ** (2 * s - 1))
    if denom == 0:
        raise VanishingFactorError(p, "exact denominator is zero")
    return 1 / denom


@dataclass(frozen=True)
class EulerEvaluation:
    """A truncated Euler product evaluated at real s > 0.

    value is exp(log_value) by construction.  factor_count is the
    number of good odd primes <= prime_bound; skipped_primes lists the
    primes <= prime_bound dividing the discriminant, 2 always among
    them once prime_bound reaches it.
    """

    s: float
    prime_bound: int
    log_value: float
    value: float
    factor_count: int
    skipped_primes: tuple[int, ...]


def partial_L(curve: Curve, s: float, limit: int) -> EulerEvaluation:
    """Product of local factors over the good odd primes <= limit.

    One log-subtraction per prime, strictly ascending, so equal inputs
    reproduce bit-identical results no matter how the underlying a_p
    were obtained.  An empty prime range gives the empty product 1.
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    primes, skipped = prime_split(curve, limit)
    log_value = 0.0
    for p in primes:
        denom = _factor_denominator(p, trace_ap(curve, p).a_p, s)
        if denom <= 0.0:
            raise VanishingFactorError(p, f"denominator {denom} at s = {s}")
        log_value -= math.log(denom)
    return EulerEvaluation(float(s), limit, log_value, math.exp(log_value), len(primes), skipped)


def partial_L_exact(curve: Curve, s: int, limit: int) -> Fraction:
    """Exact truncated product for integer s >= 1.

    The d = 1 minus twist at s = 1 up to limit 7 comes out to
    (3/4)(5/8)(7/8) = 105/256.
    """
    _check_exact_s(s)
    value = Fraction(1)
    for p in prime_split(curve, limit)[0]:
        value *= euler_factor_exact(p, trace_ap(curve, p).a_p, s)
    return value


@dataclass(frozen=True)
class RatioEvaluation:
    """Factorwise quotient of two truncated products at the same s.

    primes[i] and factors[i] pair up; ratio is their running product.
    """

    s: float
    prime_bound: int
    primes: tuple[int, ...]
    factors: tuple[float, ...]
    ratio: float


def ratio_partial(top: Curve, bottom: Curve, s: float, limit: int) -> RatioEvaluation:
    """Quotient of partial products over primes good for both curves.

    A prime where the two traces agree contributes exactly 1.0, with no
    float division at all.  A curve against itself is therefore
    identically 1, and for a twist pair every p = 3 (mod 4) factor is
    pinned to 1.0: both traces vanish there, so the quotient carries
    information only at p = 1 (mod 4).
    """
    for curve in (top, bottom):
        if curve.discriminant() == 0:
            raise SingularCurveError(f"singular curve {curve}")
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    delta_bottom = bottom.discriminant()
    primes = tuple(p for p in prime_split(top, limit)[0] if delta_bottom % p != 0)
    factors = []
    ratio = 1.0
    for p in primes:
        a_top = trace_ap(top, p).a_p
        a_bottom = trace_ap(bottom, p).a_p
        if a_top == a_bottom:
            factor = 1.0
        else:
            factor = euler_factor(p, a_top, s) / euler_factor(p, a_bottom, s)
        factors.append(factor)
        ratio *= factor
    return RatioEvaluation(float(s), limit, primes, tuple(factors), ratio)
