import random
import tracemalloc

import pytest

from curvecount.errors import HypothesisError
from curvecount.modmath import (
    QNR,
    QR,
    _is_qr,
    _root_counts,
    is_prime,
    legendre_symbol,
    prime_profile,
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


# The least strong pseudoprimes to the first 12 and the first 13 prime bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_is_right_below_psi_13_and_refuses_the_rest():
    assert PSI_12 == 399165290221 * 798330580441 and not is_prime(PSI_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)  # a Mersenne prime; the largest prime below 2^64
    assert PSI_13 == 1287836182261 * 2575672364521
    for n in (PSI_13, PSI_13 + 2, 10**30):
        with pytest.raises(ValueError, match="^primality is decided only below 3317044064679887385961981, got "):
            is_prime(n)


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


def test_euler_kernel_against_enumeration():
    for p in primes_by_trial_division(200):
        if p == 2:
            continue
        squares = squares_by_enumeration(p)
        for a in range(1, p):
            assert _is_qr(a, p) == (a in squares), (a, p)


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
        qr = {t for t, n in enumerate(root_counts(p)) if n == 2}
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


def test_root_counts_kernel_hands_over_its_one_table():
    # Sweeps and brute-force counts own the kernel's table, so it is not
    # copied: building it holds p bytes, not 2p.
    p = 100003
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = _root_counts(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == root_counts(p)
    assert peak - before < p + 4096


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
