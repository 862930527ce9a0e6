"""Affine point counts for y^2 = x^3 + a x + b over prime fields.

N_p counts affine solutions only; the projective count is one larger.
Brute force is O(p) per prime: the sum over x of the number of square
roots of t = f(x) = x^3 + ax + b, read from a root table r (1 at t = 0,
2 at a nonzero square, 0 elsewhere).  Since f(-x) = 2b - f(x), the pair
x, -x has c[f(x)] = r[f(x)] + r[2b - f(x)] roots together, so one pass
over x = 1 .. (p-1)/2 with the pair table c (_pair_table), plus the
roots at x = 0, counts every x; nothing about QR_p is assumed.  Every
brute count goes through _brute_counts, the oracle for the paper's
identities, which builds both tables itself from the unchecked
_root_counts: it never calls modmath.root_counts, which the claims
read, and shares none of the tables residue_lemmas caches.  Every curve
y^2 = x^3 + ax is counted in O(log p) instead: N_p = p at p = 3 (mod 4)
(identity 1), and at p = 1 (mod 4) the trace comes from p = u^2 + v^2
and one quartic residue symbol (Gauss).  `cross_validate` re-derives
those traces by brute force, and any disagreement is surfaced as data,
never patched over.

This module only counts.  The paper's closed forms for the twist family
y^2 = x^3 -+ d^2 x, and the sweep that checks them against these
counts, live in residue_lemmas, which imports from here.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .errors import BadReductionError, SingularCurveError, TangentUndefinedError
from .modmath import _root_counts, _sqrt_of_minus_one, require_odd_prime, sieve_primes

BRUTE = "brute"
LEMMA1 = "lemma1"
GAUSS = "gauss"


class Curve(namedtuple("Curve", "a b")):
    """Short Weierstrass curve y^2 = x^3 + a x + b over the integers."""

    __slots__ = ()

    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)


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
    require_odd_prime(p)
    return _brute_counts(p, curve.b, [curve.a])[0]


def _brute_counts(p: int, b: int, a_values) -> list[int]:
    """N_p of y^2 = x^3 + ax + b for each a in a_values, by brute force.

    Unchecked: p must be an odd prime.  One root table and one pair
    table serve every a; x = 0 has c[b] / 2 roots, and each x in
    1 .. (p-1)/2 counts itself and p - x at once.
    """
    c = _pair_table(_root_counts(p), b)
    b %= p
    xs = range(1, (p + 1) // 2)
    return [c[b] // 2 + sum(c[(x * (x * x + a) + b) % p] for x in xs) for a in [a % p for a in a_values]]


def _pair_table(r: bytes, b: int) -> bytearray:
    """c[t] = r[t] + r[(2b - t) mod p], for a root table r of p = len(r) bytes.

    Each block of c is one big-int add of byte lanes: r's lanes, and the
    run of r that descends from 2b - t, read big-endian so that its
    first byte lands in the top lane.  Lanes stay <= 4, so none carries.
    Blocks of 64 KiB keep c itself the only memory the count adds.
    """
    p = len(r)
    c = bytearray(p)
    block = 1 << 16
    for lo in range(0, p, block):
        n = min(block, p - lo)
        top = (2 * b - lo) % p + 1  # r[top - 1 - j] pairs with t = lo + j
        run = r[max(top - n, 0) : top]
        if n > top:  # the run wraps from r[0] round to r[p - 1]
            run = r[p - (n - top) :] + run
        lanes = int.from_bytes(r[lo : lo + n], "little") + int.from_bytes(run, "big")
        c[lo : lo + n] = lanes.to_bytes(n, "little")
    return c


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
    every b != 0 curve; method="brute" forces enumeration.  A singular
    curve raises SingularCurveError, a p dividing the discriminant BadReductionError.
    """
    require_odd_prime(p)
    if method not in ("auto", "brute"):
        raise ValueError(f"method must be 'auto' or 'brute', got {method!r}")
    if _nonsingular_discriminant(curve) % p == 0:
        raise BadReductionError(f"p = {p} divides the discriminant of {curve}")
    return _trace_ap(curve, p) if method == "auto" else _brute_record(curve, p)


def _trace_ap(curve: Curve, p: int) -> PointCountRecord:
    """trace_ap(curve, p) without its checks: p must be a good odd prime.

    This is what every sweep calls, on primes from one sieve, so no
    sweep runs Miller-Rabin per prime.
    """
    if curve.b != 0:
        return _brute_record(curve, p)
    if p % 4 == 3:
        return PointCountRecord(p, p, 0, LEMMA1)  # Lemma 1: N_p = p
    a_p = _gauss_ap(curve.a, p)
    return PointCountRecord(p, p - a_p, a_p, GAUSS)


def _brute_record(curve: Curve, p: int) -> PointCountRecord:
    n_p = _brute_counts(p, curve.b, [curve.a])[0]
    return PointCountRecord(p, n_p, p - n_p, BRUTE)


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
    s = (curve.a + 3 * x * x) * pow(2 * y, -1, p) % p
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


def ap_table(curve: Curve, limit: int, cross_validate: bool = False, workers: int = 1,
             cached=()) -> list[PointCountRecord]:
    """One record per good odd prime <= limit, ascending in p.

    cached holds records already counted, ascending and complete up to
    its last prime, as cache.read_cache returns them: those <= limit are
    kept, and only the good odd primes past the last are traced, in
    batches that sweep.map_chunks may fan out to `workers` processes.
    The table is the same for every worker count.
    """
    from .sweep import map_chunks

    def records(primes):
        out = []
        for p in primes:
            rec = _trace_ap(curve, p)
            if cross_validate and rec.method != BRUTE:
                rec = rec._replace(brute_np=_brute_record(curve, p).n_p)
            out.append(rec)
        return out

    last = cached[-1].p if cached else -1
    parts = map_chunks(records, [p for p in prime_split(curve, limit)[0] if p > last], workers)
    return [r for r in cached if r.p <= limit] + [r for part in parts for r in part]
