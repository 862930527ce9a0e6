import math
from fractions import Fraction

import pytest

from curvecount.errors import SingularCurveError, VanishingFactorError
from curvecount.lseries import (
    euler_factor,
    euler_factor_exact,
    partial_L,
    partial_L_exact,
    ratio_partial,
)
from curvecount.point_count import Curve, good_odd_primes, trace_ap

MINUS_ONE = Curve(-1, 0)
PLUS_ONE = Curve(1, 0)


def test_discriminant_examples():
    assert MINUS_ONE.discriminant() == 64
    assert Curve(0, 1).discriminant() == -432
    assert Curve(-9, 0).discriminant() == 46656
    assert Curve(0, 0).discriminant() == 0


def test_discriminant_always_even():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert Curve(a, b).discriminant() % 2 == 0


def test_good_primes_examples():
    assert good_odd_primes(MINUS_ONE, 13) == [3, 5, 7, 11, 13]
    assert good_odd_primes(Curve(-9, 0), 13) == [5, 7, 11, 13]
    assert good_odd_primes(MINUS_ONE, 2) == []


def test_good_primes_singular():
    with pytest.raises(SingularCurveError):
        good_odd_primes(Curve(0, 0), 100)


def test_euler_factor_examples():
    assert euler_factor(7, 0, 1) == pytest.approx(7 / 8, rel=1e-12)
    assert euler_factor(13, 6, 1) == pytest.approx(13 / 8, rel=1e-12)
    assert euler_factor(13, 6, 2) == pytest.approx(1.036321, abs=1e-6)


def test_euler_factor_degenerate_denominator():
    # 1 - 6/5 + 1/5 = 0 at s = 1; a_p = 6 is far outside the Hasse range
    with pytest.raises(VanishingFactorError) as info:
        euler_factor(5, 6, 1)
    assert info.value.p == 5
    with pytest.raises(VanishingFactorError):
        euler_factor(5, 9, 1)


def test_euler_factor_exact_examples():
    assert euler_factor_exact(7, 0, 1) == Fraction(7, 8)
    assert euler_factor_exact(13, 6, 1) == Fraction(13, 8)
    assert euler_factor_exact(13, 6, 2) == Fraction(2197, 2120)


def test_euler_factor_exact_rejects_bad_s():
    with pytest.raises(ValueError):
        euler_factor_exact(7, 0, 0)
    with pytest.raises(ValueError):
        euler_factor_exact(7, 0, 1.5)
    with pytest.raises(VanishingFactorError):
        euler_factor_exact(5, 6, 1)


def test_partial_l_exact_frozen_values():
    assert partial_L_exact(MINUS_ONE, 1, 7) == Fraction(105, 256)
    assert partial_L_exact(MINUS_ONE, 1, 5) == Fraction(15, 32)
    assert partial_L_exact(MINUS_ONE, 1, 2) == Fraction(1)


def test_partial_l_float_agrees_with_exact():
    ev = partial_L(MINUS_ONE, 1.0, 7)
    assert ev.value == pytest.approx(105 / 256, rel=1e-12)
    assert ev.log_value == pytest.approx(math.log(105 / 256), abs=1e-12)
    assert ev.factor_count == 3
    assert ev.skipped_primes == (2,)
    assert ev.s == 1.0
    assert ev.prime_bound == 7


def test_partial_l_value_is_exp_of_log():
    for curve, s, limit in [(MINUS_ONE, 1.0, 200), (PLUS_ONE, 1.75, 300), (Curve(-9, 0), 2.5, 150)]:
        ev = partial_L(curve, s, limit)
        assert abs(ev.value - math.exp(ev.log_value)) <= 1e-12 * abs(ev.value)


def test_partial_l_empty_product():
    ev = partial_L(MINUS_ONE, 1.0, 2)
    assert ev.value == 1.0
    assert ev.log_value == 0.0
    assert ev.factor_count == 0
    assert ev.skipped_primes == (2,)
    assert partial_L(MINUS_ONE, 1.0, 1).skipped_primes == ()


def test_partial_l_near_one_for_large_s():
    ev = partial_L(MINUS_ONE, 6.0, 1000)
    assert abs(ev.value - 1.0) < 1e-3


def test_partial_l_skipped_primes_track_discriminant():
    ev = partial_L(Curve(-9, 0), 1.0, 13)
    assert ev.skipped_primes == (2, 3)
    assert ev.factor_count == 4


def test_partial_l_validations():
    with pytest.raises(SingularCurveError):
        partial_L(Curve(0, 0), 1.0, 100)
    with pytest.raises(ValueError):
        partial_L(MINUS_ONE, 0.0, 100)
    with pytest.raises(ValueError):
        partial_L(MINUS_ONE, -1.0, 100)
    with pytest.raises(ValueError):
        partial_L_exact(MINUS_ONE, 0, 100)


def test_ratio_frozen_trace():
    r = ratio_partial(MINUS_ONE, PLUS_ONE, 1.0, 13)
    assert r.primes == (3, 5, 7, 11, 13)
    assert r.factors[0] == 1.0
    assert r.factors[2] == 1.0
    assert r.factors[3] == 1.0
    assert r.factors[1] == pytest.approx(0.5, rel=1e-12)
    assert r.factors[4] == pytest.approx(2.5, rel=1e-12)
    assert r.ratio == pytest.approx(1.25, rel=1e-12)


def test_ratio_self_is_exactly_one():
    r = ratio_partial(MINUS_ONE, MINUS_ONE, 1.75, 100)
    assert r.ratio == 1.0
    assert all(f == 1.0 for f in r.factors)


def test_ratio_twist_pair_one_at_3_mod_4():
    r = ratio_partial(Curve(-25, 0), Curve(25, 0), 2.5, 200)
    for p, f in zip(r.primes, r.factors):
        if p % 4 == 3:
            assert f == 1.0


def test_ratio_restricts_to_primes_good_for_both():
    r = ratio_partial(Curve(-9, 0), MINUS_ONE, 1.0, 13)
    assert r.primes == (5, 7, 11, 13)
    r = ratio_partial(MINUS_ONE, Curve(-9, 0), 1.0, 13)
    assert r.primes == (5, 7, 11, 13)


def test_partial_l_extends_incrementally():
    lo = partial_L(MINUS_ONE, 1.5, 100)
    hi = partial_L(MINUS_ONE, 1.5, 200)
    tail = 0.0
    for p in good_odd_primes(MINUS_ONE, 200):
        if p > 100:
            tail += math.log(euler_factor(p, trace_ap(MINUS_ONE, p).a_p, 1.5))
    assert lo.log_value + tail == pytest.approx(hi.log_value, abs=1e-12)
