"""Residue censuses: the counting identities behind the closed-form N_p.

A census counts *distinct* square (or fourth-power) values t in Z_p^*,
not the y producing them; shifted values that land on 0 are excluded,
since 0 is neither a residue nor a nonresidue.

The censuses read modmath.root_counts(p), the one per-prime table, as
byte lanes of a big integer: with QR the integer whose byte t is 1 for
t in QR_p and 0 elsewhere, and Q4 the same for the fourth powers, a
shift by 8 bits moves every t by one, so the count of t in Q4 with
t - 1 in QR_p is (Q4 & (QR << 8)).bit_count().  lemma4_check reads
root_counts directly, and its chord values are a bytes flag table too.

Each identity proves its prime by first reading a per-prime lru table
(root_counts, or the census built on it) and makes no Miller-Rabin call
of its own.  A table is only stored once its prime has passed, so a
sweep proves each prime once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress

from .errors import HypothesisError
from .modmath import _QR_LANE, _sqrt_of_minus_one, require_odd_prime, root_counts, sieve_primes


class ResidueCounts(namedtuple("ResidueCounts", "p lemma2_count n1 n2")):
    """The three censuses at one prime p = 1 (mod 4)."""

    __slots__ = ()


def count_lemma2(p: int) -> int:
    """Count distinct t = y^2 in Z_p^* with t - 1 a nonzero residue.

    For p = 1 (mod 4) the count is exactly (p - 5)/4; the sweep tests
    assert that identity wholesale.
    """
    r = root_counts(p)  # reading the table is the odd-prime check
    if p % 4 != 1:
        raise HypothesisError(f"count_lemma2 needs p = 1 (mod 4), got {p}")
    qr = int.from_bytes(r.translate(_QR_LANE), "little")
    return (qr & (qr << 8)).bit_count()


@lru_cache(maxsize=8)
def _quartic_census(p: int) -> tuple[int, int]:
    """(n1, n2): distinct fourth powers t with t - 1 resp. t + 1 in QR_p.

    Raises ValueError, through root_counts, unless p is an odd prime.
    """
    qr_flags = root_counts(p).translate(_QR_LANE)
    q4_flags = bytearray(p)
    for t in compress(range(p), qr_flags):
        q4_flags[t * t % p] = 1
    qr = int.from_bytes(qr_flags, "little")
    q4 = int.from_bytes(q4_flags, "little")
    return (q4 & (qr << 8)).bit_count(), (q4 & (qr >> 8)).bit_count()


def count_quartic(p: int, shift: int) -> int:
    """Count distinct t = y^4 in Z_p^* with t + shift a nonzero residue.

    shift = -1 gives the census written n1 throughout, shift = +1 gives n2.
    """
    n1, n2 = _quartic_census(p)  # reading the census is the odd-prime check
    if shift not in (-1, 1):
        raise ValueError(f"shift must be -1 or +1, got {shift}")
    return n1 if shift == -1 else n2


def census(p: int) -> ResidueCounts:
    """All three counts at one p = 1 (mod 4)."""
    return ResidueCounts(p, count_lemma2(p), count_quartic(p, -1), count_quartic(p, 1))


@lru_cache(maxsize=8)
def _chord_values(p: int) -> bytes:
    """Flags of p bytes, 1 at each r + 1/r mod p over units r outside {1, -1, eps, -eps}.

    Unchecked: lemma4_check has proved p prime and p = 1 (mod 4).
    """
    eps = _sqrt_of_minus_one(p)
    excluded = {1, p - 1, eps, p - eps}
    flags = bytearray(p)
    for r in range(2, p - 1):
        if r not in excluded:
            flags[(r + pow(r, -1, p)) % p] = 1
    return bytes(flags)


def lemma4_check(p: int, y: int) -> tuple[bool, bool]:
    """Evaluate both sides of the chord criterion for y^4 - 1 at one y.

    Left: y^4 - 1 is a nonzero residue mod p.  Right: some unit r outside
    {+-1, +-eps} satisfies 2 y^2 = r + 1/r mod p.  The excluded r are the
    degenerate chords (r = +-1 forces y^4 = 1, r = +-eps forces y = 0).
    The contract is lhs = rhs at every y; tests sweep it exhaustively.
    """
    roots = root_counts(p)  # reading the table is the odd-prime check
    if p % 4 != 1:
        raise HypothesisError(f"lemma4_check needs p = 1 (mod 4), got {p}")
    y %= p
    if y == 0:
        raise ValueError("y must be a unit mod p")
    lhs = roots[(pow(y, 4, p) - 1) % p] == 2
    rhs = _chord_values(p)[2 * y * y % p] == 1
    return lhs, rhs


def lemma5_hit(p: int) -> bool:
    """Whether p falls in the class -1 in QR_p, 2 in QNR_p, eps in QR_p.

    Tests the three memberships directly rather than leaning on the
    mod-8 argument that predicts the class is empty.
    """
    require_odd_prime(p)
    return _lemma5_hit(p)


def _lemma5_hit(p: int) -> bool:
    """lemma5_hit without its check: p must be an odd prime.

    Sweeps call this on primes from one sieve, so no sweep runs
    Miller-Rabin per prime.
    """
    half = (p - 1) // 2  # Euler's criterion: t in QR_p iff t^half = 1
    if pow(-1, half, p) != 1 or pow(2, half, p) == 1:
        return False
    return pow(_sqrt_of_minus_one(p), half, p) == 1


def lemma5_scan(limit: int) -> list[int]:
    """Primes p <= limit hitting the lemma5_hit class; expected empty
    (eps lands in QR_p only at p = 1 mod 8, which puts 2 in QR_p too)."""
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    return [p for p in sieve_primes(limit) if p != 2 and _lemma5_hit(p)]


def lemma6_check(p: int) -> tuple[int, int, bool]:
    """(n1, n2, n1 + n2 == (p-5)/4) at one p = 5 (mod 8).

    The identity is specific to -1 in QR_p with eps in QNR_p; at
    p = 1 (mod 8) it genuinely fails (p = 17 gives 1 + 1 = 2, not 3).
    """
    n1, n2 = _quartic_census(p)  # reading the census is the odd-prime check
    if p % 8 != 5:
        raise HypothesisError(f"lemma6_check needs p = 5 (mod 8), got {p}")
    return n1, n2, n1 + n2 == (p - 5) // 4


# The return annotation reaches fractions.Fraction through __import__,
# which runs only when typing.get_type_hints evaluates it: importing this
# module, on the path of every counting call, does not load fractions.
def lemma8_fraction(limit: int) -> tuple[int, int, __import__("fractions").Fraction]:
    """Split the odd primes <= limit by p mod 4.

    Returns (#p = 1 mod 4, #p = 3 mod 4, first count over the total) with
    the fraction exact.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    from fractions import Fraction  # kept off the import path of the counting calls

    ones = threes = 0
    for p in sieve_primes(limit):
        if p == 2:
            continue
        if p % 4 == 1:
            ones += 1
        else:
            threes += 1
    return ones, threes, Fraction(ones, ones + threes)
