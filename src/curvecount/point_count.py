"""Affine point counts for y^2 = x^3 + a x + b over prime fields.

N_p counts affine solutions only; the projective count is one larger.
Counting is O(p) per prime: the Legendre-character sum over x, with the
character evaluated by table lookup and t = 0 contributing exactly one
solution y = 0.  The closed forms for the twist family y^2 = x^3 +- d^2 x
are claims under test, so `cross_validate` re-derives them by brute force
and any disagreement is surfaced as data, never patched over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt

from .errors import BadReductionError, HypothesisError, SingularCurveError, TangentUndefinedError
from .modmath import mod_inverse, legendre_symbol, quadratic_residues, require_odd_prime, sieve_primes
from .residue_lemmas import count_quartic

BRUTE = "brute"
LEMMA1 = "lemma1"
LEMMA3_MINUS = "lemma3_minus"
LEMMA3_PLUS = "lemma3_plus"
METHODS = (BRUTE, LEMMA1, LEMMA3_MINUS, LEMMA3_PLUS)

MINUS = "minus"
PLUS = "plus"


@dataclass(frozen=True)
class Curve:
    """Short Weierstrass curve y^2 = x^3 + a x + b over the integers."""

    a: int
    b: int

    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)


@dataclass(frozen=True)
class TwistSpec:
    """One member of the twist family: y^2 = x^3 - d^2 x or + d^2 x."""

    d: int
    sign: str

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if self.sign not in (MINUS, PLUS):
            raise ValueError(f"sign must be {MINUS!r} or {PLUS!r}, got {self.sign!r}")

    def curve(self) -> Curve:
        dd = self.d * self.d
        return Curve(-dd if self.sign == MINUS else dd, 0)


@dataclass(frozen=True)
class PointCountRecord:
    """One prime's count: n_p affine solutions, a_p = p - n_p.

    n1_used carries the quartic census behind a closed-form count;
    brute_np is filled by cross-validation and must equal n_p.
    """

    p: int
    n_p: int
    a_p: int
    method: str
    n1_used: int | None = None
    brute_np: int | None = None

    @property
    def mismatch(self) -> bool:
        return self.brute_np is not None and self.brute_np != self.n_p


def count_affine_points(curve: Curve, p: int) -> int:
    """#{(x, y) in Z_p x Z_p : y^2 = x^3 + ax + b mod p}, by brute force."""
    require_odd_prime(p)
    a = curve.a % p
    b = curve.b % p
    qr = quadratic_residues(p)
    n = 0
    for x in range(p):
        t = (x * x * x + a * x + b) % p
        if t == 0:
            n += 1
        elif t in qr:
            n += 2
    return n


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


def np_lemma3(spec: TwistSpec, p: int) -> PointCountRecord:
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
    require_odd_prime(p)
    if p % 4 != 1:
        raise HypothesisError(f"np_lemma3 needs p = 1 (mod 4), got {p}")
    if spec.d % p == 0:
        raise HypothesisError(f"np_lemma3 needs d nonzero mod p, got d = {spec.d}, p = {p}")
    d_is_qr = legendre_symbol(spec.d, p) == 1
    if spec.sign == MINUS or p % 8 == 1:
        n1 = count_quartic(p, -1)
        n_p = 8 * n1 + 7 if d_is_qr else 2 * p - 7 - 8 * n1
    else:
        n1 = count_quartic(p, 1)
        n_p = 8 * n1 + 3 if d_is_qr else 2 * p - 3 - 8 * n1
    method = LEMMA3_MINUS if spec.sign == MINUS else LEMMA3_PLUS
    return PointCountRecord(p, n_p, p - n_p, method, n1_used=n1)


def _twist_d(curve: Curve) -> int | None:
    """d >= 1 with curve = y^2 = x^3 +- d^2 x, or None if not of that shape."""
    if curve.b != 0 or curve.a == 0:
        return None
    r = isqrt(abs(curve.a))
    return r if r * r == abs(curve.a) else None


def trace_ap(curve: Curve, p: int, method: str = "auto") -> PointCountRecord:
    """a_p = p - N_p at one good prime.

    method="auto" uses the closed forms where their hypotheses hold
    (twist-shaped curves) and brute force otherwise; method="brute"
    forces enumeration.
    """
    require_odd_prime(p)
    if method not in ("auto", "brute"):
        raise ValueError(f"method must be 'auto' or 'brute', got {method!r}")
    if curve.discriminant() % p == 0:
        raise BadReductionError(f"p = {p} divides the discriminant of {curve}")
    if method == "auto" and curve.b == 0 and curve.a % p != 0:
        if p % 4 == 3:
            n_p = np_lemma1(curve.a, p)
            return PointCountRecord(p, n_p, p - n_p, LEMMA1)
        d = _twist_d(curve)
        if d is not None:
            return np_lemma3(TwistSpec(d, MINUS if curve.a < 0 else PLUS), p)
    n_p = count_affine_points(curve, p)
    return PointCountRecord(p, n_p, p - n_p, BRUTE)


def lemma7_check(d: int, p: int) -> tuple[int, int, int]:
    """(a_p minus, a_p plus, their sum) for the twist pair at p = 5 (mod 8).

    The sum vanishes exactly when the n1 + n2 census identity holds, so
    this is a cross-lemma consistency check, not a tautology.
    """
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    require_odd_prime(p)
    if p % 8 != 5:
        raise HypothesisError(f"lemma7_check needs p = 5 (mod 8), got {p}")
    if d % p == 0:
        raise HypothesisError(f"lemma7_check needs d nonzero mod p, got d = {d}, p = {p}")
    ap_minus = np_lemma3(TwistSpec(d, MINUS), p).a_p
    ap_plus = np_lemma3(TwistSpec(d, PLUS), p).a_p
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


def good_odd_primes(curve: Curve, limit: int) -> list[int]:
    """Odd primes <= limit not dividing the discriminant, ascending."""
    delta = curve.discriminant()
    if delta == 0:
        raise SingularCurveError(f"{curve} is singular")
    return [p for p in sieve_primes(limit) if p != 2 and delta % p != 0]


def records_for_primes(curve: Curve, primes: list[int], cross_validate: bool = False) -> list[PointCountRecord]:
    """trace_ap over a prime list; the unit of work handed to sweep workers."""
    out = []
    for p in primes:
        rec = trace_ap(curve, p)
        if cross_validate and rec.method != BRUTE:
            rec = replace(rec, brute_np=count_affine_points(curve, p))
        out.append(rec)
    return out


def ap_table(curve: Curve, limit: int, cross_validate: bool = False) -> list[PointCountRecord]:
    """One record per good odd prime <= limit, ascending in p."""
    return records_for_primes(curve, good_odd_primes(curve, limit), cross_validate)
