"""End-to-end acceptance sweep.

Each test prints one PASS/FAIL line so a plain ``pytest -v -s`` run reads
as a checklist.  The criteria run in file order; the Hasse check consumes
every a_p produced by the earlier sweeps through the module-level pool.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from curvecount.collisions import collision_search
from curvecount.lseries import partial_L, partial_L_exact, ratio_partial
from curvecount.point_count import Curve, count_affine_points, double_point_mod
from curvecount.rational_points import (
    RationalPoint,
    double_point_rational,
    find_points_for_d,
    lemma11_exhaustive,
)
from curvecount.residue_lemmas import (
    MINUS,
    PLUS,
    TwistSpec,
    census,
    count_lemma2,
    lemma4_check,
    lemma5_scan,
    lemma8_fraction,
    np_lemma1,
    np_lemma3,
)
from curvecount.modmath import sieve_primes

from oracles import collision_groups_by_sorting

# (p, a_p) pairs accumulated by criteria 1, 3 and 5 for the Hasse check
AP_POOL = []


def report(number, label, ok):
    print(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def odd_primes(limit, residue=None, modulus=4):
    primes = [p for p in sieve_primes(limit) if p != 2]
    if residue is None:
        return primes
    return [p for p in primes if p % modulus == residue]


def test_criterion_01_lemma1_brute_sweep():
    started = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for p in odd_primes(1999, residue=3):
        for a in rng.sample(range(1, p), min(20, p - 1)):
            n_p = count_affine_points(Curve(a, 0), p)
            ok = ok and n_p == p == np_lemma1(a, p)
            AP_POOL.append((p, p - n_p))
    elapsed = time.perf_counter() - started
    report(1, "lemma 1 count is p for p = 3 (mod 4)", ok and elapsed < 10.0)


def test_criterion_02_lemma2_closed_form():
    sweep = odd_primes(1999, residue=1)
    ok = all(count_lemma2(p) == (p - 5) // 4 for p in sweep if p > 5)
    report(2, "lemma 2 census equals (p-5)/4", ok)


def test_criterion_03_lemma3_matches_brute():
    ok = True
    for p in odd_primes(1999, residue=1):
        for d in range(1, 21):
            if d % p == 0:
                continue
            for sign in (MINUS, PLUS):
                spec = TwistSpec(d, sign)
                n_p = np_lemma3(spec, p)
                ok = ok and n_p == count_affine_points(spec.curve(), p)
                AP_POOL.append((p, p - n_p))
    ok = ok and np_lemma3(TwistSpec(1, MINUS), 13) == 7
    ok = ok and np_lemma3(TwistSpec(2, MINUS), 13) == 19
    ok = ok and np_lemma3(TwistSpec(1, PLUS), 13) == 19
    report(3, "lemma 3 closed forms match brute counts", ok)


def test_criterion_04_quartic_censuses_sum():
    ok = True
    for p in odd_primes(10**4, residue=5, modulus=8):
        counts = census(p)
        ok = ok and counts.n1 + counts.n2 == (p - 5) // 4
    thirteen = census(13)
    ok = ok and (thirteen.n1, thirteen.n2) == (0, 2)
    report(4, "quartic censuses n1 + n2 = (p-5)/4", ok)


def test_criterion_05_twist_traces_cancel():
    ok = True
    for p in odd_primes(1999, residue=5, modulus=8):
        for d in range(1, 21):
            if d % p == 0:
                continue
            ap_minus = p - np_lemma3(TwistSpec(d, MINUS), p)
            ap_plus = p - np_lemma3(TwistSpec(d, PLUS), p)
            ok = ok and ap_minus + ap_plus == 0
            AP_POOL.append((p, ap_minus))
            AP_POOL.append((p, ap_plus))
    report(5, "twist pair traces cancel at p = 5 (mod 8)", ok)


def test_criterion_06_lemma5_scan_empty():
    started = time.perf_counter()
    hits = lemma5_scan(10**6)
    elapsed = time.perf_counter() - started
    report(6, "lemma 5 scan to 1e6 finds nothing", hits == [] and elapsed < 60.0)


def test_criterion_07_lemma8_fraction_near_half():
    _, _, fraction = lemma8_fraction(10**6)
    report(7, "residue class split near one half at 1e6", Fraction(49, 100) <= fraction <= Fraction(51, 100))


def test_criterion_08_hasse_bound():
    ok = len(AP_POOL) > 0 and all(a_p * a_p < 4 * p for p, a_p in AP_POOL)
    report(8, f"Hasse bound holds for {len(AP_POOL)} traces", ok)


def test_criterion_09_lemma4_identity():
    ok = True
    for p in odd_primes(500, residue=1):
        for y in range(1, p):
            lhs, rhs = lemma4_check(p, y)
            ok = ok and lhs == rhs
    report(9, "lemma 4 membership identity for all y", ok)


def test_criterion_10_known_rational_points():
    six = find_points_for_d(6, 16)
    five = find_points_for_d(5, 16)
    ok = RationalPoint(18, 72) in six
    ok = ok and RationalPoint(-4, 6) in five
    ok = ok and RationalPoint(Fraction(25, 4), Fraction(75, 8)) in five
    ok = ok and all(pt.on_curve(-36) for pt in six)
    ok = ok and all(pt.on_curve(-25) for pt in five)
    report(10, "parameter search finds the classical points", ok)


def test_criterion_11_lemma11_empty_families():
    ok = all(lemma11_exhaustive(d, 500) == [] for d in (3, 11, 19, 43, 59, 67, 83))
    ok = ok and lemma11_exhaustive(6, 500) != []
    report(11, "lemma 11 families stay empty, control does not", ok)


def test_criterion_12_square_d_finds_nothing():
    ok = all(find_points_for_d(d, 200) == [] for d in (1, 4, 9, 16, 25))
    report(12, "square d admits no parametrized points", ok)


def test_criterion_13_duplication():
    doubled = double_point_rational(Curve(-36, 0), RationalPoint(-3, 9))
    ok = doubled.x == Fraction(25, 4) and abs(doubled.y) == Fraction(35, 8)
    ok = ok and doubled.on_curve(-36)

    rng = random.Random(202)
    primes = odd_primes(300)
    sqrt_tables = {}
    trials = 0
    while trials < 1000:
        p = rng.choice(primes)
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a * a * a + 27 * b * b) % p == 0:
            continue
        if p not in sqrt_tables:
            sqrt_tables[p] = {y * y % p: y for y in range(1, p)}
        table = sqrt_tables[p]
        # a tiny curve can lack affine points off the x-axis; redraw then
        xs = [x for x in range(p) if (x * x * x + a * x + b) % p in table]
        if not xs:
            continue
        x = rng.choice(xs)
        y = table[(x * x * x + a * x + b) % p]
        x2, y2 = double_point_mod(Curve(a, b), p, (x, y))
        ok = ok and (y2 * y2 - x2 * x2 * x2 - a * x2 - b) % p == 0
        trials += 1
    report(13, "duplication stays on the curve, exactly and mod p", ok)


def test_criterion_14_partial_products():
    exact = partial_L_exact(Curve(-1, 0), 1, 7).value
    ok = exact == Fraction(105, 256)
    ok = ok and partial_L(Curve(-1, 0), 1.0, 7).value == pytest.approx(float(exact), rel=1e-12)
    ratio = ratio_partial(Curve(-1, 0), Curve(1, 0), 1.0, 13).ratio
    ok = ok and ratio == pytest.approx(1.25, rel=1e-12)
    ok = ok and ratio_partial(Curve(-1, 0), Curve(-1, 0), 1.0, 13).ratio == 1.0
    report(14, "partial products: exact value, twist ratio, self ratio", ok)


def test_criterion_15_tail_stability():
    ok = True
    for curve in (Curve(-1, 0), Curve(1, 0)):
        low = partial_L(curve, 1.75, 2 * 10**4).log_value
        high = partial_L(curve, 1.75, 4 * 10**4).log_value
        ok = ok and abs(high - low) < 1e-3
    report(15, "log partial product stable from 2e4 to 4e4 at s=1.75", ok)


def test_criterion_16_collision_search_deterministic(fan_outs_forced):
    def as_bytes(groups):
        payload = [
            [g.v, [list(member) for member in g.members], list(g.d_values), g.shared_x]
            for g in groups
        ]
        return json.dumps(payload).encode()

    base = collision_search(100)
    oracle = collision_groups_by_sorting(100)
    ok = {g.v: list(g.members) for g in base} == oracle
    serialized = as_bytes(base)
    ok = ok and all(as_bytes(collision_search(100, workers=w)) == serialized for w in (4, 8))
    ok = ok and fan_outs_forced == [4, 8]  # bound 100 has 63 class pairs, so both fan out after one batch
    report(16, "collision search matches oracle, worker invariant", ok)
