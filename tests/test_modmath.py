import random
import tracemalloc

import pytest

from curvecount.errors import HypothesisError
from curvecount.modmath import (
    QNR,
    QR,
    is_prime,
    legendre_symbol,
    mod_inverse,
    prime_profile,
    quadratic_residues,
    quartic_residues,
    root_counts,
    sieve_primes,
    sqrt_of_minus_one,
)
from oracles import (
    legendre_by_enumeration,
    primes_by_trial_division,
    root_counts_by_enumeration,
    squares_by_enumeration,
)


def test_sieve_small_values():
    assert sieve_primes(10) == [2, 3, 5, 7]
    assert sieve_primes(2) == [2]
    assert sieve_primes(1) == []
    assert sieve_primes(0) == []
    assert len(sieve_primes(100)) == 25


def test_sieve_matches_trial_division():
    assert sieve_primes(2000) == primes_by_trial_division(2000)


def test_is_prime_agrees_with_sieve():
    flags = set(sieve_primes(3000))
    for n in range(3000):
        assert is_prime(n) == (n in flags)


def test_legendre_examples():
    assert legendre_symbol(1, 13) == 1
    assert legendre_symbol(2, 13) == -1
    assert legendre_symbol(13, 13) == 0


def test_legendre_against_enumeration():
    for p in primes_by_trial_division(100):
        if p == 2:
            continue
        for a in range(-p, 2 * p):
            assert legendre_symbol(a, p) == legendre_by_enumeration(a, p), (a, p)


def test_legendre_rejects_non_primes():
    for bad in (0, 1, 2, 4, 9, 15, 561):
        with pytest.raises(ValueError):
            legendre_symbol(3, bad)


def test_legendre_multiplicative_in_first_argument():
    rng = random.Random(1)
    primes = [p for p in sieve_primes(10**4) if p > 2]
    for _ in range(500):
        p = rng.choice(primes)
        a = rng.randrange(-2 * p, 2 * p)
        b = rng.randrange(-2 * p, 2 * p)
        assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_qr_and_qnr_split_the_units_evenly():
    # #QR_p = #QNR_p = (p-1)/2, checked by enumeration for every odd p <= 10^4.
    for p in sieve_primes(10**4):
        if p == 2:
            continue
        qr = quadratic_residues(p)
        assert qr == squares_by_enumeration(p)
        assert len(qr) == (p - 1) // 2


def test_root_counts_match_enumeration():
    for p in sieve_primes(2000):
        if p == 2:
            continue
        r = root_counts(p)
        assert type(r) is bytes and list(r) == root_counts_by_enumeration(p), p


def test_root_counts_rejects_non_primes():
    for bad in (0, 1, 2, 9, 561):
        with pytest.raises(ValueError):
            root_counts(bad)


def test_root_counts_take_one_byte_a_residue():
    # The table is the one bytes object of p entries; building it holds
    # that object and the bytearray it is copied from, nothing more.
    p = 100003
    root_counts.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = root_counts(p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == p
    assert kept - before < 2 * p
    assert peak - before < 2 * p + 4096


def test_quartic_residues_are_squares_of_squares():
    for p in (13, 17, 29, 101):
        expected = {pow(y, 4, p) for y in range(1, p)}
        assert quartic_residues(p) == expected
    assert quartic_residues(17) == {1, 4, 13, 16}


def test_mod_inverse_examples():
    assert mod_inverse(1, 13) == 1
    assert mod_inverse(2, 13) == 7
    assert mod_inverse(5, 13) == 8


def test_mod_inverse_range_and_property():
    for p in (3, 7, 13, 101):
        for a in range(1, p):
            r = mod_inverse(a, p)
            assert 1 <= r <= p - 1
            assert a * r % p == 1


def test_mod_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        mod_inverse(0, 13)
    with pytest.raises(ZeroDivisionError):
        mod_inverse(26, 13)


def test_sqrt_of_minus_one_examples():
    assert sqrt_of_minus_one(13) == 5
    assert sqrt_of_minus_one(5) == 2
    assert sqrt_of_minus_one(17) == 4


def test_sqrt_of_minus_one_everywhere():
    for p in sieve_primes(10**4):
        if p % 4 != 1:
            continue
        eps = sqrt_of_minus_one(p)
        assert (eps * eps + 1) % p == 0
        assert 1 <= eps <= (p - 1) // 2


def test_sqrt_of_minus_one_hypothesis():
    for p in (3, 7, 11, 19):
        with pytest.raises(HypothesisError):
            sqrt_of_minus_one(p)


def test_prime_profile_examples():
    prof = prime_profile(13)
    assert (prof.class_minus_one, prof.class_two) == (QR, QNR)
    assert (prof.epsilon, prof.class_epsilon, prof.p_mod_8) == (5, QNR, 5)

    prof = prime_profile(7)
    assert (prof.class_minus_one, prof.class_two) == (QNR, QR)
    assert prof.epsilon is None and prof.class_epsilon is None
    assert prof.p_mod_8 == 7

    prof = prime_profile(17)
    assert (prof.class_minus_one, prof.class_two) == (QR, QR)
    assert (prof.epsilon, prof.class_epsilon, prof.p_mod_8) == (4, QR, 1)


def test_prime_profile_epsilon_class_cross_check():
    # class_epsilon = QR exactly when p = 1 (mod 8), across all p <= 10^5.
    for p in sieve_primes(10**5):
        if p % 4 != 1:
            continue
        prof = prime_profile(p)
        assert (prof.class_epsilon == QR) == (p % 8 == 1), p


def test_profile_invariant_under_epsilon_choice():
    # (eps|p) = (-eps|p) whenever -1 is a residue, so the canonical pick
    # cannot change any classification.
    for p in sieve_primes(2000):
        if p % 4 != 1:
            continue
        eps = sqrt_of_minus_one(p)
        assert legendre_symbol(eps, p) == legendre_symbol(p - eps, p)
