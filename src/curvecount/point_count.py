"""Affine point counts for y^2 = x^3 + a x + b over prime fields.

N_p counts affine solutions only; the projective count is one larger.
Brute force is O(p) per prime: the sum over x of the number of square
roots of t = x^3 + ax + b, read from the table modmath.root_counts (1
at t = 0, 2 at a nonzero square, 0 elsewhere).  Every curve
y^2 = x^3 + ax is counted in O(log p) instead: N_p = p at p = 3
(mod 4) (Lemma 1), and at p = 1 (mod 4) the
trace comes from p = u^2 + v^2 and one quartic residue symbol (Gauss).
The paper's closed forms for the twist family y^2 = x^3 +- d^2 x are
claims under test, so `cross_validate` re-derives traces by brute force
and any disagreement is surfaced as data, never patched over.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .errors import BadReductionError, HypothesisError, SingularCurveError, TangentUndefinedError
from .modmath import (
    _root_counts, _sqrt_of_minus_one, mod_inverse, require_odd_prime, root_counts, sieve_primes,
)
from .residue_lemmas import _quartic_census

BRUTE = "brute"
LEMMA1 = "lemma1"
GAUSS = "gauss"

MINUS = "minus"
PLUS = "plus"


class Curve(namedtuple("Curve", "a b")):
    """Short Weierstrass curve y^2 = x^3 + a x + b over the integers."""

    __slots__ = ()

    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)


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


class PointCountRecord(namedtuple("PointCountRecord", "p n_p a_p method brute_np", defaults=(None,))):
    """One prime's count: n_p affine solutions, a_p = p - n_p.

    brute_np, None by default, is filled by cross-validation and must
    equal n_p.
    """

    __slots__ = ()

    @property
    def mismatch(self) -> bool:
        return self.brute_np is not None and self.brute_np != self.n_p


def count_affine_points(curve: Curve, p: int) -> int:
    """#{(x, y) in Z_p x Z_p : y^2 = x^3 + ax + b mod p}, by brute force."""
    return _count_affine(curve, p, root_counts(p))  # reading the table is the odd-prime check


def _count_affine(curve: Curve, p: int, r: bytes) -> int:
    """count_affine_points without its check, given r = root_counts(p)."""
    a = curve.a % p
    b = curve.b % p
    return sum(r[(x * (x * x + a) + b) % p] for x in range(p))


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
    n1, n2 = _quartic_census(p)  # reading the census is the odd-prime check
    if p % 4 != 1:
        raise HypothesisError(f"np_lemma3 needs p = 1 (mod 4), got {p}")
    if spec.d % p == 0:
        raise HypothesisError(f"np_lemma3 needs d nonzero mod p, got d = {spec.d}, p = {p}")
    d_is_qr = pow(spec.d, (p - 1) // 2, p) == 1  # Euler's criterion
    n_used, shift = (n1, 7) if spec.sign == MINUS or p % 8 == 1 else (n2, 3)
    return 8 * n_used + shift if d_is_qr else 2 * p - shift - 8 * n_used


def _gauss_ap(a: int, p: int) -> int:
    """a_p of y^2 = x^3 + ax at a prime p = 1 (mod 4) not dividing a.

    Ireland & Rosen, A Classical Introduction to Modern Number Theory,
    ch. 18 sec. 4, thm. 5: with p = pi conj(pi), pi = u + vi primary
    (u odd, v even, pi = 1 mod 2 + 2i), a_p = 2 Re(conj(chi) pi), where
    chi = (-a / pi)_4 is the quartic residue symbol.  Cornacchia's
    descent from sqrt(-1) mod p gives u and v; one power of -a picks
    chi.  Unchecked: callers vouch for p and a.
    """
    r, s = p, _sqrt_of_minus_one(p)
    while s * s > p:  # Euclid on (p, sqrt(-1)): the first remainder below sqrt(p) is u
        r, s = s, r % s
    u, v = s, isqrt(p - s * s)
    if u % 2 == 0:
        u, v = v, u
    if (u % 4 == 1) != (v % 4 == 0):  # primary: u = 1 (mod 4) iff 4 | v
        u = -u
    # chi = (-a)^((p-1)/4) mod pi, one of 1, -1, i, -i, where i = -u/v (mod pi).
    w = pow(-a, (p - 1) // 4, p)
    if w == 1:
        return 2 * u
    if w == p - 1:
        return -2 * u
    return 2 * v if w == -u * pow(v, -1, p) % p else -2 * v


def trace_ap(curve: Curve, p: int, method: str = "auto") -> PointCountRecord:
    """a_p = p - N_p at one good prime.

    method="auto" picks Lemma 1 for b = 0 at p = 3 (mod 4), the Gauss
    formula (_gauss_ap) for b = 0 at p = 1 (mod 4), and brute force for
    every b != 0 curve; method="brute" forces enumeration.
    """
    require_odd_prime(p)
    if method not in ("auto", "brute"):
        raise ValueError(f"method must be 'auto' or 'brute', got {method!r}")
    if curve.discriminant() % p == 0:
        raise BadReductionError(f"p = {p} divides the discriminant of {curve}")
    return _trace_ap(curve, p) if method == "auto" else _brute_record(curve, p)


def _auto_method(curve: Curve, p: int) -> str:
    """The method trace_ap's "auto" uses at p; its cost model and the cache check ask here too."""
    if curve.b != 0:
        return BRUTE
    return LEMMA1 if p % 4 == 3 else GAUSS


def _trace_ap(curve: Curve, p: int) -> PointCountRecord:
    """trace_ap(curve, p) without its checks: p must be a good odd prime.

    This is what every sweep calls, on primes from one sieve, so no
    sweep runs Miller-Rabin per prime.
    """
    method = _auto_method(curve, p)
    if method == BRUTE:
        return _brute_record(curve, p)
    if method == LEMMA1:
        return PointCountRecord(p, p, 0, LEMMA1)  # Lemma 1: N_p = p
    a_p = _gauss_ap(curve.a, p)
    return PointCountRecord(p, p - a_p, a_p, GAUSS)


def _brute_record(curve: Curve, p: int) -> PointCountRecord:
    n_p = _count_affine(curve, p, _root_counts(p))
    return PointCountRecord(p, n_p, p - n_p, BRUTE)


def lemma7_check(d: int, p: int) -> tuple[int, int, int]:
    """(a_p minus, a_p plus, their sum) for the twist pair at p = 5 (mod 8).

    The sum vanishes exactly when the n1 + n2 census identity holds, so
    this is a cross-lemma consistency check, not a tautology.
    """
    minus = TwistSpec(d, MINUS)  # raises ValueError unless d >= 1
    if p % 8 != 5:
        raise HypothesisError(f"lemma7_check needs p = 5 (mod 8), got {p}")
    if d % p == 0:
        raise HypothesisError(f"lemma7_check needs d nonzero mod p, got d = {d}, p = {p}")
    ap_minus = p - np_lemma3(minus, p)  # np_lemma3's census read is the odd-prime check
    ap_plus = p - np_lemma3(TwistSpec(d, PLUS), p)
    return ap_minus, ap_plus, ap_minus + ap_plus


def double_point_mod(curve: Curve, p: int, point: tuple[int, int]) -> tuple[int, int]:
    """Tangent-line duplication mod p: S = (a + 3x^2)/(2y), x' = S^2 - 2x.

    y' = y + S(x' - x) is the third intersection of the tangent with the
    cubic (the negative of the usual doubled point); it satisfies the
    curve congruence, which is asserted.
    """
    require_odd_prime(p)
    x, y = point[0] % p, point[1] % p
    if (y * y - (x * x * x + curve.a * x + curve.b)) % p != 0:
        raise ValueError(f"({point[0]}, {point[1]}) is not on {curve} mod {p}")
    if y == 0:
        raise TangentUndefinedError(f"tangent undefined at two-torsion point x = {x} mod {p}")
    s = (curve.a + 3 * x * x) * mod_inverse(2 * y, p) % p
    x2 = (s * s - 2 * x) % p
    y2 = (y + s * (x2 - x)) % p
    assert (y2 * y2 - (x2 * x2 * x2 + curve.a * x2 + curve.b)) % p == 0
    return x2, y2


def _nonsingular_discriminant(curve: Curve) -> int:
    delta = curve.discriminant()
    if delta == 0:
        raise SingularCurveError(f"{curve} is singular")
    return delta


def prime_split(curve: Curve, limit: int) -> tuple[list[int], tuple[int, ...]]:
    """(good, skipped) among the primes <= limit, from one sieve.

    good are the odd primes not dividing the discriminant, ascending;
    skipped are the primes dividing it (2 always, once limit reaches it).
    """
    delta = _nonsingular_discriminant(curve)
    good, skipped = [], []
    for q in sieve_primes(limit):
        (skipped if delta % q == 0 else good).append(q)
    return good, tuple(skipped)


def good_odd_primes(curve: Curve, limit: int) -> list[int]:
    """Odd primes <= limit not dividing the discriminant, ascending."""
    return prime_split(curve, limit)[0]


def records_for_primes(curve: Curve, primes: list[int], cross_validate: bool = False) -> list[PointCountRecord]:
    """trace_ap over a prime list; the unit of work handed to sweep workers.

    The primes must be good odd primes of curve, as good_odd_primes
    gives them; they are not checked again.
    """
    out = []
    for p in primes:
        rec = _trace_ap(curve, p)
        if cross_validate and rec.method != BRUTE:
            rec = rec._replace(brute_np=_count_affine(curve, p, _root_counts(p)))
        out.append(rec)
    return out


def record_cost(curve: Curve, cross_validate: bool, p: int) -> float:
    """The brute-force work of records_for_primes at p, for sweep.map_chunks.

    A brute count with its root_counts table costs about 1.25 p elements,
    fitted to per-prime timings up to p = 2005.  A closed-form record
    counts as 0: it takes about as long to compute as its result takes
    to pickle back from a forked worker, so no fan-out can gain on it.
    """
    return 1.25 * p if cross_validate or _auto_method(curve, p) == BRUTE else 0


def ap_table(curve: Curve, limit: int, cross_validate: bool = False) -> list[PointCountRecord]:
    """One record per good odd prime <= limit, ascending in p."""
    return records_for_primes(curve, good_odd_primes(curve, limit), cross_validate)
