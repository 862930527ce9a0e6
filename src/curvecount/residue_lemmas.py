"""The paper's numbered identities 1 to 8, and the one sweep that checks them.

Identities 1, 3 and 7 are closed forms for N_p on the twists
y^2 = x^3 -+ d^2 x (TwistSpec); 2, 4, 5 and 6 are the residue censuses
and classes behind them; 8 splits the odd primes by p mod 4.  They are
claims under test: verify_lemma checks one of 1 to 7 against
direct evaluation or point_count._brute_counts, the brute-force oracle,
which builds its own tables and shares none with the claims.

A census counts *distinct* square (or fourth-power) values t in Z_p^*,
not the y producing them, at p = 1 (mod 4) only; shifted values that
land on 0 are excluded, since 0 is neither a residue nor a nonresidue.

The censuses read modmath.root_counts(p), the root table that proves
its prime on every call, as byte lanes of a big integer: with QR the
integer whose byte t is 1 for t in QR_p and 0 elsewhere, and Q4 the same
for the fourth powers, a shift by 8 bits moves every t by one, so the
count of t in Q4 with t - 1 in QR_p is (Q4 & (QR << 8)).bit_count().
Identity 4's two sides are one bytes table too, read by lemma4_check and
by its sweep.

Each identity proves its prime by reading root_counts once: count_lemma2
reads it itself, and the rest read one of the two per-prime lru tables
built on it, the census and identity 4's sides, which also refuse
p = 3 (mod 4).  They make no Miller-Rabin call of their own.  lru_cache
stores no call that raised, so a sweep proves each prime once.  The
oracle trusts the sweep's sieve and shares no cached table with these.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from itertools import compress
from math import gcd

from .errors import HypothesisError
from .modmath import _is_qr, _sqrt_of_minus_one, require_odd_prime, root_counts, sieve_primes
from .point_count import Curve, _brute_counts
from .sweep import map_chunks

MINUS = "minus"
PLUS = "plus"

# Translating a root_counts table through this leaves a 1 byte at each
# t in QR_p and 0 elsewhere: the flags of QR_p, one byte lane per residue.
_QR_LANE = bytes.maketrans(b"\x01\x02", b"\x00\x01")


class TwistSpec(namedtuple("TwistSpec", "d sign")):
    """One member of the twist family: y^2 = x^3 - d^2 x or + d^2 x."""

    __slots__ = ()

    def __new__(cls, d: int, sign: str):
        if d < 1:
            raise ValueError(f"d must be a positive integer, got {d}")
        if sign not in (MINUS, PLUS):
            raise ValueError(f"sign must be {MINUS!r} or {PLUS!r}, got {sign!r}")
        return super().__new__(cls, d, sign)

    def curve(self) -> Curve:
        dd = self.d * self.d
        return Curve(-dd if self.sign == MINUS else dd, 0)


class ResidueCounts(namedtuple("ResidueCounts", "p lemma2_count n1 n2")):
    """The three censuses at one prime p = 1 (mod 4)."""

    __slots__ = ()


def np_lemma1(a: int, p: int) -> int:
    """N_p = p for y^2 = x^3 + ax when -1 is a nonresidue mod p.

    x -> -x pairs the nonzero x with rhs values t and -t, exactly one of
    which is a square; no census is needed.
    """
    require_odd_prime(p)
    if p % 4 == 1:
        raise HypothesisError(f"np_lemma1 needs -1 in QNR_p, got p = {p} = 1 (mod 4)")
    if a % p == 0:
        raise HypothesisError(f"np_lemma1 needs a nonzero a mod p, got a = {a}, p = {p}")
    return p


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
def census(p: int) -> ResidueCounts:
    """All three counts at one p = 1 (mod 4): count_lemma2's, then the quartic census n1, n2.

    n1 and n2 count the distinct fourth powers t with t - 1 resp. t + 1 in QR_p.
    ValueError (from root_counts) unless p is an odd prime, then HypothesisError
    unless p = 1 (mod 4), where the t <= (p-1)/2 in QR_p square onto Q4 once each.
    """
    qr_flags = root_counts(p).translate(_QR_LANE)  # reading the table is the odd-prime check
    if p % 4 != 1:
        raise HypothesisError(f"the quartic census needs p = 1 (mod 4), got {p}")
    q4_flags = bytearray(p)
    for t in compress(range((p + 1) // 2), qr_flags):
        q4_flags[t * t % p] = 1
    qr = int.from_bytes(qr_flags, "little")
    q4 = int.from_bytes(q4_flags, "little")
    return ResidueCounts(p, (qr & (qr << 8)).bit_count(), (q4 & (qr << 8)).bit_count(), (q4 & (qr >> 8)).bit_count())


def np_lemma3(spec: TwistSpec, p: int) -> int:
    """Closed-form N_p for the twist family at p = 1 (mod 4).

    Minus sign: N_p = 8 n1 + 7 when d in QR_p, else 2p - 7 - 8 n1, with
    n1 the (-1)-shift quartic census.  Plus sign at p = 5 (mod 8): the
    same shape with 3 in place of 7 and the (+1)-shift census n2.  That
    3-shape is specific to eps in QNR_p: at p = 1 (mod 8) the
    substitution x -> eps x rescales y^2 by the square -eps and turns
    the plus curve into the minus curve for eps d, whose class equals
    d's, so the plus count there IS the minus count.  (At p = 5 (mod 8)
    the two routes agree exactly because n1 + n2 = (p-5)/4.)
    """
    _, _, n1, n2 = census(p)  # reading the census checks the prime and its class
    if spec.d % p == 0:
        raise HypothesisError(f"np_lemma3 needs d nonzero mod p, got d = {spec.d}, p = {p}")
    n_used, shift = (n1, 7) if spec.sign == MINUS or p % 8 == 1 else (n2, 3)
    return 8 * n_used + shift if _is_qr(spec.d, p) else 2 * p - shift - 8 * n_used


@lru_cache(maxsize=8)
def _lemma4_sides(p: int) -> bytes:
    """Identity 4 at each nonzero square t = y^2 mod p: its left side in bit 0 of byte t, its right in bit 1.

    One walk over r = 2 .. (p-1)/2 sets both: y = r meets every square but
    1, whose left side is false, and r with -r gives each chord value r + 1/r
    and its negative, with eps the one r to exclude.  ValueError (from
    root_counts) unless p is an odd prime, then HypothesisError unless p = 1 (mod 4).
    """
    roots = root_counts(p)  # reading the table is the odd-prime check
    if p % 4 != 1:
        raise HypothesisError(f"identity 4 needs p = 1 (mod 4), got {p}")
    half, eps = (p + 1) // 2, _sqrt_of_minus_one(p)
    sides = bytearray(p)
    inverse = [0, 1]  # inverse[r] = 1/r mod p, from p = (p // r) r + p % r
    for r in range(2, half):
        inverse.append(-(p // r) * inverse[p % r] % p)
        t = r * r % p
        sides[t] |= roots[(t * t - 1) % p] == 2
        if r != eps:
            t = (r + inverse[r]) * half % p  # (r + 1/r)/2
            sides[t] |= 2
            sides[p - t] |= 2
    return bytes(sides)


def lemma4_check(p: int, y: int) -> tuple[bool, bool]:
    """Evaluate both sides of the chord criterion for y^4 - 1 at one y.

    Left: y^4 - 1 is a nonzero residue mod p.  Right: some unit r outside
    {+-1, +-eps} satisfies 2 y^2 = r + 1/r mod p.  The excluded r are the
    degenerate chords (r = +-1 forces y^4 = 1, r = +-eps forces y = 0).
    The contract is lhs = rhs at every y; tests sweep it exhaustively.
    """
    table = _lemma4_sides(p)  # reading the table checks the prime and its class
    if y % p == 0:
        raise ValueError("y must be a unit mod p")
    sides = table[y * y % p]
    return bool(sides & 1), bool(sides & 2)


def lemma5_hit(p: int) -> bool:
    """Whether p falls in the class -1 in QR_p, 2 in QNR_p, eps in QR_p.

    Tests the three memberships directly rather than leaning on the
    mod-8 argument that predicts the class is empty.
    """
    require_odd_prime(p)
    return _lemma5_hit(p)


def _lemma5_hit(p: int) -> bool:
    """lemma5_hit without its check: p must be an odd prime.

    The sweep calls this on primes from one sieve, so it runs no
    Miller-Rabin per prime.
    """
    return _is_qr(-1, p) and not _is_qr(2, p) and _is_qr(_sqrt_of_minus_one(p), p)


def lemma5_scan(limit: int) -> list[int]:
    """Primes p <= limit hitting the lemma5_hit class, as verify_lemma(5, limit) finds them.

    Expected empty: eps lands in QR_p only at p = 1 (mod 8), which puts
    2 in QR_p too.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    return [mismatch["p"] for mismatch in verify_lemma(5, limit)[1]]


def lemma6_check(p: int) -> tuple[int, int, bool]:
    """(n1, n2, n1 + n2 == (p-5)/4) at one p = 5 (mod 8).

    The identity is specific to -1 in QR_p with eps in QNR_p; at
    p = 1 (mod 8) it genuinely fails (p = 17 gives 1 + 1 = 2, not 3).
    """
    _, _, n1, n2 = census(p)  # reading the census checks the prime and p = 1 (mod 4)
    if p % 8 != 5:
        raise HypothesisError(f"lemma6_check needs p = 5 (mod 8), got {p}")
    return n1, n2, n1 + n2 == (p - 5) // 4


def lemma7_check(d: int, p: int) -> tuple[int, int, int]:
    """(a_p minus, a_p plus, their sum) for the twist pair at p = 5 (mod 8).

    The sum vanishes exactly when the n1 + n2 census identity holds, so
    this is a cross-lemma consistency check, not a tautology.
    """
    ap_minus = p - np_lemma3(TwistSpec(d, MINUS), p)  # checks d >= 1, the prime, p = 1 (mod 4), d mod p
    if p % 8 != 5:
        raise HypothesisError(f"lemma7_check needs p = 5 (mod 8), got {p}")
    ap_plus = p - np_lemma3(TwistSpec(d, PLUS), p)
    return ap_minus, ap_plus, ap_minus + ap_plus


# The return annotation reaches fractions.Fraction through __import__,
# which runs only when typing.get_type_hints evaluates it: importing this
# module does not load fractions.
def lemma8_fraction(limit: int) -> tuple[int, int, __import__("fractions").Fraction]:
    """Split the odd primes <= limit by p mod 4.

    Returns (#p = 1 mod 4, #p = 3 mod 4, first count over the total) with
    the fraction exact.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    from fractions import Fraction  # kept off the import path of the sweeps

    primes = sieve_primes(limit)
    ones = sum(p % 4 == 1 for p in primes)
    threes = len(primes) - 1 - ones  # every prime but 2 and the ones
    return ones, threes, Fraction(ones, ones + threes)


# ------------------------------------------------------------------ the sweep
# _verifyN(p, d_max, samples, seed) -> (items checked, mismatch details) at one sieved prime.


def _counts_by_class(p: int, a_values) -> dict[int, int]:
    """{a: N_p of y^2 = x^3 + ax} over a_values, brute-counting one a per class.

    x = u^2 X, y = u^3 Y carries the curve of a to that of a u^-4 (Silverman,
    The Arithmetic of Elliptic Curves, III.1), so N_p depends only on the class
    of a modulo fourth powers, which a^((p-1)/gcd(4, p-1)) mod p names.
    """
    keys = {a: pow(a, (p - 1) // gcd(4, p - 1), p) for a in a_values}
    representatives = dict(zip(keys.values(), keys))
    counts = dict(zip(representatives, _brute_counts(p, 0, representatives.values())))
    return {a: counts[key] for a, key in keys.items()}


def _verify1(p: int, d_max: int, samples: int, seed: int):
    import random  # only this check samples

    rng = random.Random((seed << 32) | p)
    values = sorted(rng.sample(range(1, p), min(samples, p - 1)))
    counts = _counts_by_class(p, values)
    return len(values), [{"a": a, "n_p": counts[a], "expected": p} for a in values if counts[a] != p]


def _verify2(p: int, d_max: int, samples: int, seed: int):
    count = count_lemma2(p)
    return 1, [] if count == (p - 5) // 4 else [{"count": count, "expected": (p - 5) // 4}]


def _verify3(p: int, d_max: int, samples: int, seed: int):
    # The curve mod p is y^2 = x^3 + (a mod p) x, and the d below p meet every value a takes.
    counts = _counts_by_class(p, {sign * d * d % p for d in range(1, min(d_max, p - 1) + 1) for sign in (-1, 1)})
    specs = (TwistSpec(d, sign) for d in range(1, d_max + 1) if d % p for sign in (MINUS, PLUS))
    bad = [{"d": spec.d, "sign": spec.sign, "claimed": claimed, "brute": brute} for spec in specs
           if (claimed := np_lemma3(spec, p)) != (brute := counts[spec.curve().a % p])]
    return 2 * (d_max - d_max // p), bad


def _verify4(p: int, d_max: int, samples: int, seed: int):
    sides = _lemma4_sides(p)  # a byte of 1 or 2 is a square where the two sides differ
    return p - 1, [{"y": y, "lhs": s == 1, "rhs": s == 2} for y in range(1, p) if (s := sides[y * y % p]) in (1, 2)]


def _verify5(p: int, d_max: int, samples: int, seed: int):
    return 1, [{}] if _lemma5_hit(p) else []


def _verify6(p: int, d_max: int, samples: int, seed: int):
    n1, n2, ok = lemma6_check(p)
    return 1, [] if ok else [{"n1": n1, "n2": n2, "expected_sum": (p - 5) // 4}]


def _verify7(p: int, d_max: int, samples: int, seed: int):
    checks = ((d, lemma7_check(d, p)) for d in range(1, d_max + 1) if d % p)
    bad = [{"d": d, "ap_minus": ap_minus, "ap_plus": ap_plus, "sum": total}
           for d, (ap_minus, ap_plus, total) in checks if total]
    return d_max - d_max // p, bad


# lemma -> ((modulus, residue) selecting the odd primes it covers, check).
LEMMAS = {
    1: ((4, 3), _verify1),
    2: ((4, 1), _verify2),
    3: ((4, 1), _verify3),
    4: ((4, 1), _verify4),
    5: ((2, 1), _verify5),
    6: ((8, 5), _verify6),
    7: ((8, 5), _verify7),
}


def _verify_chunk(lemma: int, check, d_max: int, samples: int, seed: int, primes: list[int]):
    """(checked, mismatch records) for one prime chunk of one lemma sweep."""
    checked, mismatches = 0, []
    for p in primes:
        count, bad = check(p, d_max, samples, seed)
        checked += count
        mismatches.extend({"lemma": lemma, "p": p, **detail} for detail in bad)
    return checked, mismatches


def verify_lemma(lemma: int, limit: int, d_max: int = 20, samples: int = 20, seed: int = 0,
                 workers: int = 1) -> tuple[int, list[dict]]:
    """(items checked, mismatch records) of identity `lemma` at the primes <= limit of its class.

    A record is {"lemma", "p", then the check's details}, ascending in p.
    d_max bounds the d of lemmas 3 and 7.  Lemma 1 draws `samples` values
    of a at each prime, seeded by (seed, p) alone, so every workers gives
    the same answer.
    """
    if lemma not in LEMMAS:
        raise ValueError(f"lemma must be one of {sorted(LEMMAS)}, got {lemma}")
    (modulus, residue), check = LEMMAS[lemma]
    primes = [p for p in sieve_primes(limit) if p % modulus == residue]
    chunk = partial(_verify_chunk, lemma, check, d_max, samples, seed)
    results = map_chunks(chunk, primes, workers)
    return sum(r[0] for r in results), [record for r in results for record in r[1]]
