import pickle
import random

import pytest

from curvecount import cli, modmath, rational_points, residue_lemmas
from curvecount.errors import BadReductionError, HypothesisError, SingularCurveError, TangentUndefinedError
from curvecount.lseries import partial_L, partial_L_exact, ratio_partial
from curvecount.modmath import legendre_symbol, prime_profile, sieve_primes, sqrt_of_minus_one
from curvecount.point_count import (
    BRUTE,
    GAUSS,
    LEMMA1,
    Curve,
    PointCountRecord,
    ap_table,
    count_affine_points,
    double_point_mod,
    prime_split,
    trace_ap,
)
from curvecount.residue_lemmas import (
    MINUS,
    PLUS,
    TwistSpec,
    census,
    count_lemma2,
    lemma4_check,
    lemma5_hit,
    lemma6_check,
    lemma7_check,
    np_lemma1,
    np_lemma3,
)
from curvecount.point_count import _brute_counts, _pair_table
from oracles import count_points_double_loop, primes_by_trial_division, root_counts_by_enumeration, singular_by_shared_root


def test_count_affine_examples():
    assert count_affine_points(Curve(1, 0), 7) == 7
    assert count_affine_points(Curve(-1, 0), 13) == 7
    assert count_affine_points(Curve(-4, 0), 13) == 19


def test_count_affine_against_double_loop():
    # The O(p^2) loop is the lowest-level oracle; p <= 200 per its budget.
    for p in primes_by_trial_division(200):
        if p == 2:
            continue
        assert count_affine_points(Curve(-1, 0), p) == count_points_double_loop(-1, 0, p)
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59])
        a = rng.randrange(-20, 21)
        b = rng.randrange(-20, 21)
        assert count_affine_points(Curve(a, b), p) == count_points_double_loop(a, b, p), (a, b, p)


def test_count_affine_every_curve_at_small_primes():
    # Every (a, b) mod p: b = 0, 2b wrapping past p, and roots at x = 0 among them.
    for p in (3, 5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                assert count_affine_points(Curve(a, b), p) == count_points_double_loop(a, b, p), (a, b, p)


def _count_by_single_loop(r, a, b, p):
    return sum(r[(x * x * x + a * x + b) % p] for x in range(p))


@pytest.mark.parametrize("p", [65537, 100003])
def test_pair_table_past_one_block(p):
    # Past one block of the pair table; the last b puts the split at
    # 2b = 70000 (mod p) inside a block rather than at its edge.
    r = root_counts_by_enumeration(p)
    for b in (0, 1, (p - 1) // 2, p - 1, 70000 * pow(2, -1, p) % p):
        assert list(_pair_table(modmath.root_counts(p), b)) == [r[t] + r[(2 * b - t) % p] for t in range(p)], b
        assert count_affine_points(Curve(3, b), p) == _count_by_single_loop(r, 3, b, p), b


def test_brute_counts_every_a_from_one_table():
    # Unreduced a and b too: the counter reduces them itself.
    for p in (3, 5, 7, 11, 13):
        a_values = list(range(-p, 2 * p))
        for b in (0, 1, p - 1, p + 2, -3):
            assert _brute_counts(p, b, a_values) == [count_points_double_loop(a, b, p) for a in a_values], (p, b)


def test_count_affine_points_leaves_the_cached_tables_alone(monkeypatch):
    # The oracle builds its own tables and never reads the claims' root_counts.
    def claims_table(p):
        raise AssertionError(f"the oracle read root_counts({p})")

    expected = count_affine_points(Curve(3, 5), 100003)
    monkeypatch.setattr(modmath, "root_counts", claims_table)
    monkeypatch.setattr(residue_lemmas, "root_counts", claims_table)
    assert count_affine_points(Curve(3, 5), 100003) == expected
    with pytest.raises(ValueError):
        count_affine_points(Curve(3, 5), 100001)


def test_twistspec_validation():
    assert TwistSpec(1, MINUS).curve() == Curve(-1, 0)
    assert TwistSpec(3, PLUS).curve() == Curve(9, 0)
    with pytest.raises(ValueError, match="^d must be a positive integer, got 0$"):
        TwistSpec(0, MINUS)
    with pytest.raises(ValueError, match="^sign must be 'minus' or 'plus', got 'both'$"):
        TwistSpec(2, "both")


def test_records_print_by_field_and_refuse_assignment():
    # Error messages name curves by this repr, so it must not change.
    assert repr(Curve(3, 5)) == "Curve(a=3, b=5)"
    assert str(TwistSpec(2, PLUS)) == "TwistSpec(d=2, sign='plus')"
    for record, field in ((Curve(3, 5), "a"), (TwistSpec(2, PLUS), "d"), (PointCountRecord(5, 3, 2, BRUTE), "n_p")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_point_count_record_defaults_replace_and_pickle():
    rec = PointCountRecord(13, 7, 6, GAUSS)
    assert rec.brute_np is None and not rec.mismatch
    checked = rec._replace(brute_np=8)
    assert checked == PointCountRecord(13, 7, 6, GAUSS, brute_np=8) and checked.mismatch
    assert rec.brute_np is None
    # Forked workers send records back pickled.
    back = pickle.loads(pickle.dumps(checked))
    assert type(back) is PointCountRecord and back == checked


def test_np_lemma1_examples():
    assert np_lemma1(1, 7) == 7
    assert np_lemma1(3, 11) == 11
    assert np_lemma1(-1, 19) == 19
    assert count_affine_points(Curve(-1, 0), 19) == 19


def test_np_lemma1_hypothesis_errors():
    with pytest.raises(HypothesisError):
        np_lemma1(1, 13)
    with pytest.raises(HypothesisError):
        np_lemma1(7, 7)


def test_np_lemma3_examples():
    # The minus count at 13 reads n1 = 0, the plus count n2 = 2.
    assert (census(13).n1, census(13).n2) == (0, 2)
    assert np_lemma3(TwistSpec(1, MINUS), 13) == 7
    assert np_lemma3(TwistSpec(2, MINUS), 13) == 19
    assert np_lemma3(TwistSpec(1, PLUS), 13) == 19


def test_np_lemma3_plus_at_1_mod_8_uses_minus_census():
    # eps in QR identifies the two twist counts at 17; the 5 (mod 8) plus
    # shape 8 n2 + 3 would give 11 here, off by 4.
    assert np_lemma3(TwistSpec(1, PLUS), 17) == count_affine_points(Curve(1, 0), 17) == 15
    for d in range(1, 17):
        plus = np_lemma3(TwistSpec(d, PLUS), 17)
        assert plus == np_lemma3(TwistSpec(d, MINUS), 17) == count_affine_points(Curve(d * d, 0), 17), d


def test_np_lemma3_hypothesis_errors():
    with pytest.raises(HypothesisError):
        np_lemma3(TwistSpec(1, MINUS), 7)
    with pytest.raises(HypothesisError):
        np_lemma3(TwistSpec(13, MINUS), 13)


def test_np_lemma3_matches_brute_small_sweep():
    # Acceptance pushes this to p < 2000, d <= 20; keep a fast version here.
    for p in sieve_primes(300):
        if p % 4 != 1:
            continue
        for d in range(1, 8):
            if d % p == 0:
                continue
            for sign in (MINUS, PLUS):
                spec = TwistSpec(d, sign)
                assert np_lemma3(spec, p) == count_affine_points(spec.curve(), p), (p, d, sign)


def test_trace_ap_examples_and_dispatch():
    rec = trace_ap(Curve(1, 0), 7)
    assert (rec.a_p, rec.method) == (0, LEMMA1)
    rec = trace_ap(Curve(-1, 0), 13)
    assert (rec.a_p, rec.method) == (6, GAUSS)
    assert 13 - np_lemma3(TwistSpec(1, MINUS), 13) == 6
    rec = trace_ap(Curve(1, 0), 13)
    assert (rec.a_p, rec.method) == (-6, GAUSS)
    assert 13 - np_lemma3(TwistSpec(1, PLUS), 13) == -6
    rec = trace_ap(Curve(-1, 0), 13, method="brute")
    assert (rec.n_p, rec.a_p, rec.method) == (7, 6, BRUTE)
    # b != 0 has no closed form; auto falls back to brute force.
    assert trace_ap(Curve(0, 1), 7).method == BRUTE


def test_gauss_trace_matches_double_loop():
    # Every y^2 = x^3 + ax, twist or not, at every p = 1 (mod 4) below 400.
    for p in primes_by_trial_division(400):
        if p % 4 != 1:
            continue
        for a in [a for a in range(-20, 21) if a % p != 0]:
            rec = trace_ap(Curve(a, 0), p)
            assert rec.method == GAUSS, (a, p)
            assert rec.n_p == count_points_double_loop(a, 0, p), (a, p)


def test_np_lemma3_agrees_with_gauss_trace():
    # The paper's closed form stays under test against the default path.
    for p in sieve_primes(2000):
        if p % 4 != 1:
            continue
        for d in range(1, 13):
            if d % p == 0:
                continue
            for sign in (MINUS, PLUS):
                spec = TwistSpec(d, sign)
                rec = trace_ap(spec.curve(), p)
                assert rec.method == GAUSS
                assert np_lemma3(spec, p) == rec.n_p, (d, sign, p)


def _count_is_prime(monkeypatch) -> list[int]:
    """Record every Miller-Rabin call; the returned list grows as they happen."""
    calls = []
    real = modmath.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    for module in (modmath, rational_points):  # every module that binds is_prime
        monkeypatch.setattr(module, "is_prime", counting)
    return calls


def test_sweeps_run_no_miller_rabin(monkeypatch):
    calls = _count_is_prime(monkeypatch)
    for curve in (Curve(-4, 0), Curve(9, 0), Curve(3, 5)):
        assert len(ap_table(curve, 2000, cross_validate=True)) > 290
        partial_L(curve, 1.5, 2000)
        partial_L_exact(curve, 1, 2000)
    ratio_partial(Curve(-4, 0), Curve(4, 0), 1.5, 2000)
    ratio_partial(Curve(3, 5), Curve(-4, 0), 1.5, 2000)
    assert calls == []


def _clear_prime_tables():
    for table in (census, residue_lemmas._lemma4_sides):
        table.cache_clear()


@pytest.mark.parametrize("lemma", sorted(residue_lemmas.LEMMAS))
def test_lemma_sweeps_prove_each_prime_once(monkeypatch, capsys, lemma):
    _clear_prime_tables()
    calls = _count_is_prime(monkeypatch)
    rc = cli.main(["lemma-verify", "--lemma", str(lemma), "--limit", "400", "--workers", "1"])
    assert rc == 0, capsys.readouterr()
    (modulus, residue), _ = residue_lemmas.LEMMAS[lemma]
    # Lemma 5 reads no per-prime table and lemma 1 an unchecked one, so
    # for them the sieve's proof is the only one.
    assert calls == ([] if lemma in (1, 5) else [p for p in sieve_primes(400) if p % modulus == residue])


# Public identities that take a prime, each with a second argument that
# is valid whenever the prime is.
IDENTITIES = (
    lambda p: count_affine_points(Curve(-1, 0), p),
    count_lemma2,
    lambda p: census(p).n1,
    lambda p: lemma4_check(p, 2),
    lemma5_hit,
    lemma6_check,
    lambda p: lemma7_check(1, p),
)


def test_public_functions_still_validate_their_prime(monkeypatch):
    calls = _count_is_prime(monkeypatch)
    assert trace_ap(Curve(-1, 0), 13).a_p == 6
    assert calls == [13]  # once, at the boundary
    for composite in (21, 25, 2):
        with pytest.raises(ValueError):
            trace_ap(Curve(-1, 0), composite)
        with pytest.raises(ValueError):
            sqrt_of_minus_one(composite)
        with pytest.raises(ValueError):
            np_lemma1(1, composite)
        with pytest.raises(ValueError):
            np_lemma3(TwistSpec(1, MINUS), composite)
    with pytest.raises(BadReductionError):
        trace_ap(Curve(-25, 0), 5)  # p = 1 (mod 4), p | a: no Gauss trace
    with pytest.raises(BadReductionError):
        trace_ap(Curve(-9, 0), 3)
    _clear_prime_tables()
    for warm in (None, 13, 29):  # cold tables, then tables filled by a prime = 5 (mod 8)
        for identity in IDENTITIES:
            if warm is not None:
                identity(warm)
            for composite in (21, 45, 77, 33):  # 5, 5, 5 and 1 (mod 8)
                # 21, 45 and 77 pass every class check; 33 may fail one instead.
                with pytest.raises(ValueError, match="expected an odd prime" if composite % 8 == 5 else None):
                    identity(composite)


# Every public function that takes a prime, with that prime and a
# composite of the same residue class mod 8.
ONE_PROOF_CALLS = (
    (prime_profile, 13, 21),  # p = 1 (mod 4)
    (prime_profile, 19, 35),  # p = 3 (mod 4)
    (lambda p: legendre_symbol(2, p), 13, 21),
    (sqrt_of_minus_one, 13, 21),
    (rational_points.lemma11_applicable, 19, 35),
    (lambda p: double_point_mod(Curve(-1, 0), p, (5, 4)), 13, 21),
    (lambda p: trace_ap(Curve(-1, 0), p), 13, 21),
    *((identity, 13, 21) for identity in IDENTITIES),
)


@pytest.mark.parametrize("call, p, composite", ONE_PROOF_CALLS)
def test_public_functions_prove_their_prime_once(monkeypatch, call, p, composite):
    _clear_prime_tables()
    calls = _count_is_prime(monkeypatch)
    call(p)
    assert calls == [p]
    if call is rational_points.lemma11_applicable:  # a question about d, not a check of it
        assert call(composite) is False
    else:
        with pytest.raises(ValueError, match="expected an odd prime"):
            call(composite)


def test_discriminant_vanishes_exactly_at_shared_roots():
    singular = []
    for a in range(-15, 16):
        for b in range(-30, 31):
            assert (Curve(a, b).discriminant() == 0) == singular_by_shared_root(a, b), (a, b)
            if singular_by_shared_root(a, b):
                singular.append((a, b))
    assert singular == [(-12, -16), (-12, 16), (-3, -2), (-3, 2), (0, 0)]


def test_trace_ap_bad_reduction():
    assert Curve(-9, 0).discriminant() % 3 == 0
    with pytest.raises(BadReductionError):
        trace_ap(Curve(-9, 0), 3)
    with pytest.raises(SingularCurveError, match="is singular"):  # a singular curve has no good prime at all
        trace_ap(Curve(0, 0), 5)
    with pytest.raises(ValueError):
        trace_ap(Curve(-1, 0), 13, method="fast")


def test_lemma7_examples():
    assert lemma7_check(1, 13) == (6, -6, 0)
    assert lemma7_check(1, 5) == (-2, 2, 0)
    assert lemma7_check(2, 13) == (-6, 6, 0)


def test_lemma7_hypothesis_errors():
    with pytest.raises(HypothesisError):
        lemma7_check(1, 17)  # 17 = 1 (mod 8): no cancellation claim there
    with pytest.raises(HypothesisError):
        lemma7_check(5, 5)


def test_lemma7_small_sweep():
    for p in sieve_primes(500):
        if p % 8 != 5:
            continue
        for d in range(1, 8):
            if d % p == 0:
                continue
            assert lemma7_check(d, p)[2] == 0, (d, p)


def test_double_point_mod_examples():
    assert double_point_mod(Curve(-1, 0), 13, (5, 4)) == (0, 0)
    assert double_point_mod(Curve(1, 0), 13, (2, 6)) == (9, 6)
    with pytest.raises(TangentUndefinedError):
        double_point_mod(Curve(-1, 0), 13, (1, 0))
    with pytest.raises(ValueError):
        double_point_mod(Curve(-1, 0), 13, (2, 3))  # not on the curve


def test_double_point_mod_random_points_stay_on_curve():
    # Points built by solving for b, so they lie on the curve by construction.
    rng = random.Random(11)
    primes = [p for p in sieve_primes(500) if p > 3]
    for _ in range(200):
        p = rng.choice(primes)
        x, y, a = rng.randrange(p), rng.randrange(1, p), rng.randrange(-50, 51)
        b = (y * y - x * x * x - a * x) % p
        x2, y2 = double_point_mod(Curve(a, b), p, (x, y))
        assert (y2 * y2 - (x2**3 + a * x2 + b)) % p == 0


def test_good_odd_primes():
    assert prime_split(Curve(-1, 0), 13) == ([3, 5, 7, 11, 13], (2,))
    assert prime_split(Curve(-9, 0), 13) == ([5, 7, 11, 13], (2, 3))
    assert prime_split(Curve(-1, 0), 2) == ([], (2,))
    assert prime_split(Curve(-1, 0), 1) == ([], ())
    with pytest.raises(SingularCurveError):
        prime_split(Curve(0, 0), 13)


def test_ap_table_example():
    records = ap_table(Curve(-1, 0), 13)
    assert [r.p for r in records] == [3, 5, 7, 11, 13]
    assert [r.a_p for r in records] == [0, -2, 0, 0, 6]
    assert [r.method for r in records] == [LEMMA1, GAUSS, LEMMA1, LEMMA1, GAUSS]
    assert [p - np_lemma3(TwistSpec(1, MINUS), p) for p in (5, 13)] == [-2, 6]
    assert all(r.a_p == r.p - r.n_p for r in records)
    assert ap_table(Curve(-1, 0), 2) == []


def test_ap_table_worker_invariance(fan_outs_forced):
    curve = Curve(3, 5)
    cold = [trace_ap(curve, p) for p in prime_split(curve, 300)[0]]
    for workers in (1, 2, 3):
        assert ap_table(curve, 300, workers=workers) == cold
    assert fan_outs_forced == [2, 3]


def test_ap_table_keeps_cached_records():
    curve = Curve(3, 5)
    cold = ap_table(curve, 200)
    for m in (100, 200, 300):
        cached = ap_table(curve, m)
        table = ap_table(curve, 200, cached=cached)
        assert table == cold
        assert all(kept is record for kept, record in zip(table, cached))  # served, not traced again
    assert ap_table(curve, 200, cached=()) == cold
    # The last record lies below the bad prime 29, and the cache stops there.
    cached = ap_table(curve, 29)
    assert cached[-1].p == 23
    assert ap_table(curve, 60, cached=cached) == ap_table(curve, 60)


def test_ap_table_cross_validates_in_workers(fan_outs_forced):
    curve = Curve(-4, 0)
    table = ap_table(curve, 400, cross_validate=True, workers=2)
    assert fan_outs_forced == [2]
    assert table == ap_table(curve, 400, cross_validate=True)
    assert all(r.brute_np == r.n_p for r in table)


def test_ap_table_cross_validate_no_mismatches():
    for curve in (Curve(-1, 0), Curve(1, 0), Curve(-16, 0), Curve(25, 0)):
        records = ap_table(curve, 500, cross_validate=True)
        assert records, curve
        for r in records:
            if r.method != BRUTE:
                assert r.brute_np == r.n_p, (curve, r)
            assert not r.mismatch


def test_hasse_bound_on_table_records():
    for curve in (Curve(-1, 0), Curve(1, 0), Curve(2, 3)):
        for r in ap_table(curve, 300):
            assert r.a_p * r.a_p < 4 * r.p, (curve, r)
