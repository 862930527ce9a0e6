import math
from fractions import Fraction

import pytest

from curvecount.errors import SingularCurveError
from curvecount.lseries import _denominator, euler_factor, partial_L, partial_L_exact, ratio_partial
from curvecount.point_count import Curve, prime_split, trace_ap

from oracles import exact_euler_product, primes_by_trial_division

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


def test_good_odd_primes_examples():
    assert prime_split(MINUS_ONE, 13)[0] == [3, 5, 7, 11, 13]
    assert prime_split(Curve(-9, 0), 13)[0] == [5, 7, 11, 13]
    assert prime_split(MINUS_ONE, 2)[0] == []


def test_good_odd_primes_singular():
    with pytest.raises(SingularCurveError):
        prime_split(Curve(0, 0), 100)


def test_euler_factor_examples():
    assert euler_factor(7, 0, 1) == pytest.approx(7 / 8, rel=1e-12)
    assert euler_factor(13, 6, 1) == pytest.approx(13 / 8, rel=1e-12)
    assert euler_factor(13, 6, 2) == pytest.approx(1.036321, abs=1e-6)


def test_euler_factor_refuses_a_p_outside_the_hasse_range():
    # 1 - 6/5 + 1/5 = 0 at s = 1; 1 - 5/5 + 1/5 and 1 - 4.0/5 + 1/5 are
    # positive, and 4.472... (about 2 sqrt(5)) nearly zeroes it at s = 1/2,
    # but none of these is an integer with a_p^2 < 4p.
    for a_p, s in ((6, 1), (9, 1), (5, 1), (-5, 1), (4.0, 1), (4.472135954999579, 0.5)):
        with pytest.raises(ValueError, match=r"at p = 5 "):
            euler_factor(5, a_p, s)


def test_euler_factor_refuses_a_p_that_is_not_an_odd_prime():
    # 5^2 = 25 < 36, so only the composite 9 is wrong here; 1.8 came back.
    with pytest.raises(ValueError, match="^expected an odd prime, got 9$"):
        euler_factor(9, 5, 1)


def test_euler_factor_refuses_nan_s():
    with pytest.raises(ValueError, match="^s must be positive, got nan$"):
        euler_factor(5, 1, float("nan"))


def test_euler_factor_refuses_negative_s():
    # 1/121 came back: (1 - 5 + 125)^-1.
    with pytest.raises(ValueError, match="^s must be positive, got -1$"):
        euler_factor(5, 1, -1)


def test_euler_factor_refuses_s_whose_powers_overflow():
    # 5^(1 + 2e300) overflows a float; the OverflowError it raised is now a ValueError.
    with pytest.raises(ValueError, match="^s must be positive, got -1e\\+300$"):
        euler_factor(5, 1, -1e300)


def test_euler_factor_at_the_hasse_edge():
    # 5^2 = 25 < 28: the largest |a_p| at p = 7, at s = 1/2, where the
    # denominator is 2 - |a_p| / sqrt(p), about 0.11.
    for a_p in (5, -5):
        value = euler_factor(7, a_p, 0.5)
        assert math.isfinite(value) and value > 0


def test_denominator_keeps_its_hasse_margin():
    # 1 - a x + p x^2 >= (4p - a^2)/(4p) >= 3/(4p) for x = p^-s, so the
    # float denominator stays far above 1/(4p) and needs no guard.
    for p in primes_by_trial_division(500)[1:]:
        for a in range(-math.isqrt(4 * p - 1), math.isqrt(4 * p - 1) + 1):
            for s in (5e-324, 1e-3, 0.5, 1, 2, 1e300):
                assert _denominator(p, a, s) >= 1 / (4 * p), (p, a, s)
    p = 99999989  # the largest prime below the CLI's 10^8 ceiling
    a = math.isqrt(4 * p - 1)
    bound = (4 * p - a * a) / (4 * p)
    at_minimum = math.log(2 * p / a) / math.log(p)  # p^-s = a / (2p)
    assert _denominator(p, a, 0.5) >= 1 / (4 * p)
    assert _denominator(p, a, at_minimum) == pytest.approx(bound, rel=1e-6)


def test_partial_l_exact_matches_sequential_fraction_oracle():
    for (a, b), s, limit in (((-1, 0), 1, 150), ((-1, 0), 2, 13), ((-1, 0), 3, 90), ((1, 0), 2, 120),
                             ((3, 5), 1, 150), ((3, 5), 2, 80), ((-9, 0), 1, 60), ((0, 1), 4, 40)):
        assert partial_L_exact(Curve(a, b), s, limit).value == exact_euler_product(a, b, s, limit)
    # The factor at p = 13, where a_p = 6, at s = 2: 13^3 / (13^3 - 6 * 13 + 1).
    step = partial_L_exact(MINUS_ONE, 2, 13).value / partial_L_exact(MINUS_ONE, 2, 12).value
    assert step == Fraction(2197, 2120)


def test_partial_l_exact_frozen_values():
    assert partial_L_exact(MINUS_ONE, 1, 7).value == Fraction(105, 256)
    assert partial_L_exact(MINUS_ONE, 1, 5).value == Fraction(15, 32)
    assert partial_L_exact(MINUS_ONE, 1, 2).value == Fraction(1)


def test_partial_l_exact_counts_factors_as_float_mode():
    for curve, s, limit in ((MINUS_ONE, 1, 7), (MINUS_ONE, 3, 500), (Curve(3, 5), 2, 300), (MINUS_ONE, 1, 1)):
        exact = partial_L_exact(curve, s, limit)
        approx = partial_L(curve, float(s), limit)
        assert (exact.s, exact.prime_bound) == (s, limit)
        assert (exact.factor_count, exact.skipped_primes) == (approx.factor_count, approx.skipped_primes)
        assert float(exact.value) == pytest.approx(approx.value, rel=1e-12)


def test_partial_l_float_agrees_with_exact():
    ev = partial_L(MINUS_ONE, 1.0, 7)
    assert ev.value == pytest.approx(105 / 256, rel=1e-12)
    assert ev.log_value == pytest.approx(math.log(105 / 256), abs=1e-12)
    assert ev.factor_count == 3
    assert ev.skipped_primes == (2,)
    assert ev.s == 1.0
    assert ev.prime_bound == 7


def test_evaluations_refuse_assignment():
    for ev in (partial_L(MINUS_ONE, 1.0, 7), partial_L_exact(MINUS_ONE, 1, 7), ratio_partial(MINUS_ONE, PLUS_ONE, 1.0, 7)):
        with pytest.raises(AttributeError):
            ev.s = 2


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
    for s in (0, 1.5, True):
        with pytest.raises(ValueError):
            partial_L_exact(MINUS_ONE, s, 100)


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
    for p in prime_split(MINUS_ONE, 200)[0]:
        if p > 100:
            tail += math.log(euler_factor(p, trace_ap(MINUS_ONE, p).a_p, 1.5))
    assert lo.log_value + tail == pytest.approx(hi.log_value, abs=1e-12)
