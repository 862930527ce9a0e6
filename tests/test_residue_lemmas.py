import typing
from fractions import Fraction

import pytest

from curvecount.errors import HypothesisError
from curvecount.modmath import QNR, QR, legendre_symbol, prime_profile, sieve_primes
from curvecount.residue_lemmas import (
    _lemma5_hit,
    census,
    count_lemma2,
    count_quartic,
    lemma4_check,
    lemma5_scan,
    lemma6_check,
    lemma8_fraction,
    verify_lemma,
)
from oracles import census_by_enumeration


def test_count_lemma2_examples():
    assert count_lemma2(13) == 2
    assert count_lemma2(5) == 0
    assert count_lemma2(29) == 6


def test_count_lemma2_rejects_3_mod_4():
    with pytest.raises(HypothesisError):
        count_lemma2(7)


def test_count_lemma2_against_enumeration_and_formula():
    for p in sieve_primes(2000):
        if p % 4 != 1:
            continue
        got = count_lemma2(p)
        assert got == census_by_enumeration(p)[0]
        assert got == (p - 5) // 4, p


def test_count_quartic_examples():
    assert count_quartic(13, -1) == 0
    assert count_quartic(13, 1) == 2
    assert count_quartic(17, -1) == 1


def test_count_quartic_rejects_other_shifts():
    with pytest.raises(ValueError):
        count_quartic(13, 2)
    with pytest.raises(ValueError):
        count_quartic(13, 0)


def test_count_quartic_against_enumeration():
    for p in sieve_primes(2000):
        if p == 2:
            continue
        _, n1, n2 = census_by_enumeration(p)
        assert (count_quartic(p, -1), count_quartic(p, 1)) == (n1, n2), p


def test_census_bundle():
    c = census(13)
    assert (c.p, c.lemma2_count, c.n1, c.n2) == (13, 2, 0, 2)
    with pytest.raises(AttributeError):
        c.n1 = 1


def test_lemma4_examples():
    assert lemma4_check(13, 2) == (False, False)
    assert lemma4_check(13, 1) == (False, False)
    assert lemma4_check(17, 8) == (True, True)


def test_lemma4_rejects_bad_input():
    with pytest.raises(HypothesisError):
        lemma4_check(7, 2)
    with pytest.raises(ValueError):
        lemma4_check(13, 0)


def test_lemma4_equivalence_small_sweep():
    # Exhaustive up to 230; the acceptance suite pushes the same check to 500.
    for p in sieve_primes(230):
        if p % 4 != 1:
            continue
        for y in range(1, p):
            lhs, rhs = lemma4_check(p, y)
            assert lhs == rhs, (p, y)


def test_verify_lemma_sweeps_one_class_and_refuses_other_lemmas():
    # The 13 primes = 5 (mod 8) below 200, one census identity each.
    assert verify_lemma(6, 200) == (13, [])
    assert verify_lemma(7, 200, d_max=3) == (39, [])
    for lemma in (0, 8, 11):
        with pytest.raises(ValueError, match="^lemma must be one of"):
            verify_lemma(lemma, 200)


def test_lemma5_scan_empty_and_validates():
    assert lemma5_scan(100) == []
    assert lemma5_scan(10**4) == []
    with pytest.raises(ValueError):
        lemma5_scan(2)
    # 17 stays out because 2 is a residue there (6^2 = 36 = 2 mod 17).
    assert legendre_symbol(2, 17) == 1


def test_lemma5_class_agrees_with_prime_profile():
    # The sweep's kernel and the public classification of -1, 2 and eps
    # answer the same membership question at every odd prime to 10^5.
    for p in sieve_primes(10**5)[1:]:
        prof = prime_profile(p)
        in_class = (prof.class_minus_one, prof.class_two, prof.class_epsilon) == (QR, QNR, QR)
        assert _lemma5_hit(p) == in_class, p


def test_lemma6_examples():
    assert lemma6_check(13) == (0, 2, True)
    assert lemma6_check(5) == (0, 0, True)
    n1, n2, holds = lemma6_check(29)
    assert n1 + n2 == 6 and holds


def test_lemma6_sweep_1000():
    for p in sieve_primes(1000):
        if p % 8 == 5:
            assert lemma6_check(p)[2], p


def test_lemma6_negative_control_at_17():
    # At p = 1 (mod 8) the identity genuinely fails; the checker must not
    # accept such p silently.
    with pytest.raises(HypothesisError):
        lemma6_check(17)
    n1 = count_quartic(17, -1)
    n2 = count_quartic(17, 1)
    assert n1 + n2 == 2
    assert n1 + n2 != (17 - 5) // 4


def test_lemma8_examples():
    assert lemma8_fraction(20) == (3, 4, Fraction(3, 7))
    assert lemma8_fraction(100) == (11, 13, Fraction(11, 24))
    with pytest.raises(ValueError):
        lemma8_fraction(2)


def test_lemma8_annotations_resolve():
    assert typing.get_type_hints(lemma8_fraction) == {"limit": int, "return": tuple[int, int, Fraction]}
