"""Modular arithmetic over odd prime fields.

All residues are normalized to {0, ..., p-1}.  Public functions that
take a prime validate it (deterministic Miller-Rabin), so a bad p fails
loudly instead of producing garbage counts downstream.

Every per-prime table is one `bytes` object of p entries:
root_counts(p)[t] is the number of y mod p with y^2 = t, so 1 at t = 0,
2 on QR_p and 0 elsewhere.  It is lru-cached and proves its prime when
the table is built; lru_cache never stores a call that raised, so
reading the table is itself the check, and the identity functions built
on it run Miller-Rabin once per prime.  A single symbol is decided by
_is_qr, the one Euler criterion; bulk questions read root_counts.  The
private kernels behind some functions (_is_qr and _root_counts among
them) skip the check; sweeps call them on primes that came from the
sieve, and a public function proves its prime once before it calls them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress

from .errors import HypothesisError

QR = "QR"
QNR = "QNR"

# Miller-Rabin to the first 13 prime bases is deterministic below psi_13,
# the least strong pseudoprime to all of them; the first 12 stop at psi_12
# = 318665857834031151167461 (Sorenson and Webster, Math. Comp. 86 (2017)
# 985-1003).  is_prime refuses n >= psi_13 = 1287836182261 * 2575672364521.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_CEILING = 3317044064679887385961981


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending (sieve of Eratosthenes)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return list(compress(range(limit + 1), flags))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at n >= _MR_CEILING, where it could be wrong."""
    if n < 2:
        return False
    if n >= _MR_CEILING:
        raise ValueError(f"primality is decided only below {_MR_CEILING}, got {n}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")


def _is_qr(a: int, p: int) -> bool:
    """Whether a is a nonzero square mod p, by Euler's criterion; p must be an odd prime."""
    return pow(a, (p - 1) // 2, p) == 1


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1}."""
    require_odd_prime(p)
    if a % p == 0:
        return 0
    return 1 if _is_qr(a, p) else -1


def sqrt_of_minus_one(p: int) -> int:
    """The canonical square root of -1 mod p, for p = 1 (mod 4).

    The two roots are eps and p - eps; the smaller one is returned so
    output is reproducible.  Every consumer must give the same answer
    for either choice, which the tests check separately.
    """
    require_odd_prime(p)
    if p % 4 != 1:
        raise HypothesisError(f"-1 is a nonresidue mod {p}; need p = 1 (mod 4)")
    return _sqrt_of_minus_one(p)


def _sqrt_of_minus_one(p: int) -> int:
    """sqrt_of_minus_one without its checks: p must be a prime = 1 (mod 4)."""
    n = 2
    while _is_qr(n, p):  # to the first quadratic nonresidue
        n += 1
    eps = pow(n, (p - 1) // 4, p)
    return min(eps, p - eps)


@lru_cache(maxsize=8)
def root_counts(p: int) -> bytes:
    """The table r of p bytes with r[t] = #{y mod p : y^2 = t}.

    r[0] = 1, r[t] = 2 for t in QR_p and 0 for the nonresidues, so a
    brute-force count sums r[f(x)] over x.
    """
    require_odd_prime(p)
    return bytes(_root_counts(p))  # cached and shared, so immutable


def _root_counts(p: int) -> bytearray:
    """root_counts without its check or cache: p must be an odd prime."""
    r = bytearray(p)
    r[0] = 1
    for y in range(1, (p + 1) // 2):
        r[y * y % p] = 2
    return r  # the caller's own table, so not copied into bytes


# A namedtuple, not a dataclass: functools already loads collections,
# while dataclasses pulls in inspect and ast, and the CLI parser imports
# this module.  This is the package's one record idiom: every record is
# a namedtuple subclass with __slots__ = (), and a record that checks
# its fields does so in __new__, so no subcommand loads dataclasses.
class PrimeProfile(namedtuple("PrimeProfile", "p p_mod_8 class_minus_one class_two epsilon class_epsilon")):
    """Residue classification of one prime, gating the lemma hypotheses.

    epsilon and class_epsilon are None unless p = 1 (mod 4).
    """

    __slots__ = ()


def prime_profile(p: int) -> PrimeProfile:
    """Classify -1, 2 and (when present) eps = sqrt(-1) mod p.

    The classes are computed by Euler's criterion, not read off p mod 8;
    the classical mod-8 shortcuts are asserted as a cross-check.
    """
    require_odd_prime(p)
    class_minus_one = QR if _is_qr(-1, p) else QNR
    class_two = QR if _is_qr(2, p) else QNR
    if p % 4 == 1:
        epsilon = _sqrt_of_minus_one(p)
        class_epsilon = QR if _is_qr(epsilon, p) else QNR
    else:
        epsilon = None
        class_epsilon = None
    profile = PrimeProfile(p, p % 8, class_minus_one, class_two, epsilon, class_epsilon)
    _assert_profile_consistent(profile)
    return profile


def _assert_profile_consistent(profile: PrimeProfile) -> None:
    # Supplements to quadratic reciprocity, plus eps^((p-1)/2) = (-1)^((p-1)/4).
    p = profile.p
    assert (profile.class_minus_one == QR) == (p % 4 == 1)
    assert (profile.class_two == QR) == (profile.p_mod_8 in (1, 7))
    if profile.epsilon is not None:
        assert 1 <= profile.epsilon <= (p - 1) // 2
        assert (profile.epsilon * profile.epsilon + 1) % p == 0
        assert (profile.class_epsilon == QR) == (profile.p_mod_8 == 1)
