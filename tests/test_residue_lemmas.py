import importlib
import inspect
import pkgutil
import typing
from fractions import Fraction
from math import gcd

import pytest

import curvecount
from curvecount import residue_lemmas
from curvecount.errors import HypothesisError
from curvecount.modmath import QNR, QR, legendre_symbol, prime_profile, sieve_primes, sqrt_of_minus_one
from curvecount.point_count import Curve, _brute_counts
from curvecount.residue_lemmas import (
    MINUS,
    PLUS,
    TwistSpec,
    _counts_by_class,
    _lemma4_sides,
    _lemma5_hit,
    census,
    count_lemma2,
    lemma4_check,
    lemma5_scan,
    lemma6_check,
    lemma7_check,
    lemma8_fraction,
    np_lemma3,
    verify_lemma,
)
from oracles import census_by_enumeration, count_points_double_loop, lemma4_sides_by_definition


def test_count_lemma2_examples():
    assert count_lemma2(13) == 2
    assert count_lemma2(5) == 0
    assert count_lemma2(29) == 6


def test_count_lemma2_rejects_3_mod_4():
    with pytest.raises(HypothesisError):
        count_lemma2(7)


def test_count_lemma2_against_enumeration_and_formula():
    for p in sieve_primes(2000):
        if p % 4 != 1:
            continue
        got = count_lemma2(p)
        assert got == census_by_enumeration(p)[0]
        assert got == (p - 5) // 4, p


def test_census_examples():
    assert census(13).n1 == 0
    assert census(13).n2 == 2
    assert census(17).n1 == 1


def test_census_against_enumeration():
    # The censuses are defined at p = 1 (mod 4) only, and refused elsewhere.
    for p in sieve_primes(2000):
        if p == 2:
            continue
        if p % 4 == 3:
            with pytest.raises(HypothesisError):
                census(p)
            continue
        assert census(p)[1:] == census_by_enumeration(p), p


def test_census_reads_its_root_table_once(monkeypatch):
    reads = []
    real = residue_lemmas.root_counts
    monkeypatch.setattr(residue_lemmas, "root_counts", lambda p: reads.append(p) or real(p))
    census.cache_clear()
    census(13)
    assert reads == [13]


# Each reads a per-prime table that proves the prime, then its class.
CLASS_CHECKED = (
    census,
    lambda p: np_lemma3(TwistSpec(1, MINUS), p),
    lambda p: lemma4_check(p, 2),
    lemma6_check,
    lambda p: lemma7_check(1, p),
)


@pytest.mark.parametrize("identity", CLASS_CHECKED,
                         ids=["census", "np_lemma3", "lemma4_check", "lemma6_check", "lemma7_check"])
@pytest.mark.parametrize("warm", [False, True])
def test_class_is_checked_once_the_prime_is(identity, warm):
    tables = (census, _lemma4_sides)
    for table in tables:
        table.cache_clear()
    if warm:
        identity(13)
    sizes = [table.cache_info().currsize for table in tables]
    for composite in (35, 55):  # 3 (mod 4): the prime is refused before the class
        with pytest.raises(ValueError, match="expected an odd prime"):
            identity(composite)
    for prime in (7, 43):
        with pytest.raises(HypothesisError):
            identity(prime)
    assert [table.cache_info().currsize for table in tables] == sizes  # a refused prime is not stored


def test_census_bundle():
    c = census(13)
    assert (c.p, c.lemma2_count, c.n1, c.n2) == (13, 2, 0, 2)
    with pytest.raises(AttributeError):
        c.n1 = 1


def test_lemma4_examples():
    assert lemma4_check(13, 2) == (False, False)
    assert lemma4_check(13, 1) == (False, False)
    assert lemma4_check(17, 8) == (True, True)


def test_lemma4_rejects_bad_input():
    with pytest.raises(HypothesisError):
        lemma4_check(7, 2)
    with pytest.raises(ValueError):
        lemma4_check(13, 0)


def test_lemma4_equivalence_small_sweep():
    # Exhaustive up to 230; the acceptance suite pushes the same check to 500.
    for p in sieve_primes(230):
        if p % 4 != 1:
            continue
        for y in range(1, p):
            lhs, rhs = lemma4_check(p, y)
            assert lhs == rhs, (p, y)


def test_lemma4_sides_match_definitions():
    # Every byte: the left side at each nonzero square t, and at every t the
    # right side from pow(r, -1, p) over units r outside {+-1, +-eps}.
    for p in sieve_primes(2000):
        if p % 4 == 1:
            assert _lemma4_sides(p) == lemma4_sides_by_definition(p), p


@pytest.mark.parametrize("p, y0", [(13, 2), (101, 3), (1013, 10)])
def test_lemma4_sweep_reports_every_unit_on_a_flipped_root_entry(monkeypatch, p, y0):
    entry = (pow(y0, 4, p) - 1) % p
    real = residue_lemmas.root_counts

    def flipped(q):
        table = real(q)
        return table[:entry] + bytes([2 - table[entry]]) + table[entry + 1 :] if q == p else table

    monkeypatch.setattr(residue_lemmas, "root_counts", flipped)
    _lemma4_sides.cache_clear()
    try:
        _, mismatches = verify_lemma(4, p + 10)
    finally:
        _lemma4_sides.cache_clear()
    units = [y for y in range(1, p) if (pow(y, 4, p) - 1) % p == entry]
    assert len(units) == 4  # y^4 = y0^4 has four roots: one per square class is not enough
    oracle = {y: lemma4_sides_by_definition(p)[y * y % p] for y in units}
    # The flip negates each unit's left side and leaves its right side.
    assert mismatches == [{"lemma": 4, "p": p, "y": y, "lhs": oracle[y] & 1 == 0, "rhs": oracle[y] > 1} for y in units]


def _fourth_power_class(a, p):
    """{a u^4 mod p : u a unit}, by enumeration."""
    return frozenset(a * u**4 % p for u in range(1, p))


def _record_brute_counts(monkeypatch):
    """The (p, a) of every curve the sweeps hand to the brute-force oracle."""
    calls, real = [], residue_lemmas._brute_counts

    def count(p, b, a_values):
        a_values = list(a_values)
        calls.extend((p, a) for a in a_values)
        return real(p, b, a_values)

    monkeypatch.setattr(residue_lemmas, "_brute_counts", count)
    return calls


def test_counts_by_class_counts_one_curve_per_class(monkeypatch):
    # x = u^2 X, y = u^3 Y carries the curve of a to that of a u^-4, so the
    # double loop gives every a its class representative's count.
    calls = _record_brute_counts(monkeypatch)
    for p in sieve_primes(80)[1:]:
        counts = _counts_by_class(p, range(1, p))
        representatives = [a for q, a in calls if q == p]
        assert len(representatives) == gcd(4, p - 1)
        oracle = {a: count_points_double_loop(a, 0, p) for a in range(1, p)}
        for a, n_p in counts.items():
            (representative,) = [r for r in representatives if r in _fourth_power_class(a, p)]
            assert n_p == oracle[a] == oracle[representative], (p, a)
    monkeypatch.undo()
    for p in sieve_primes(400)[1:]:
        units = range(1, p)
        assert list(_counts_by_class(p, units).items()) == list(zip(units, _brute_counts(p, 0, units))), p


def test_lemma3_sweep_counts_each_curve_mod_p_once(monkeypatch):
    # d_max past every prime, and a claim broken at every third d, so the
    # sweep's per-d records are compared with a per-d double-loop sweep.
    real_np = residue_lemmas.np_lemma3
    brute_calls = _record_brute_counts(monkeypatch)

    def claim(spec, p):
        return real_np(spec, p) + (spec.d % 3 == 0)

    monkeypatch.setattr(residue_lemmas, "np_lemma3", claim)
    primes = [p for p in sieve_primes(30) if p % 4 == 1]
    expected, checked = [], 0
    for p in primes:
        for d in range(1, 71):
            if d % p == 0:
                continue
            for sign in (MINUS, PLUS):
                spec = TwistSpec(d, sign)
                claimed = claim(spec, p)
                brute = count_points_double_loop(spec.curve().a, 0, p)
                checked += 1
                if claimed != brute:
                    expected.append({"lemma": 3, "p": p, "d": d, "sign": sign, "claimed": claimed, "brute": brute})
    assert verify_lemma(3, 30, d_max=70) == (checked, expected)
    assert len(expected) > 0
    # One curve of each class of -+d^2 modulo fourth powers, at most 4 at each prime.
    for p in primes:
        met = {_fourth_power_class(sign * d * d, p) for d in range(1, 71) if d % p for sign in (-1, 1)}
        counted = [_fourth_power_class(a, p) for q, a in brute_calls if q == p]
        assert len(counted) == len(set(counted)) <= 4 and set(counted) == met, p


def test_lemma1_sweep_counts_one_curve_per_class_mod_p(monkeypatch):
    # --samples past every prime draws every unit a, so both classes
    # modulo fourth powers (the squares and the rest, at p = 3 mod 4) are met.
    brute_calls = _record_brute_counts(monkeypatch)
    primes = [p for p in sieve_primes(60) if p % 4 == 3]
    assert verify_lemma(1, 60, samples=60) == (sum(p - 1 for p in primes), [])
    for p in primes:
        counted = [_fourth_power_class(a, p) for q, a in brute_calls if q == p]
        assert len(counted) == len(set(counted)) == 2, p


def test_verify_lemma_sweeps_one_class_and_refuses_other_lemmas():
    # The 13 primes = 5 (mod 8) below 200, one census identity each.
    assert verify_lemma(6, 200) == (13, [])
    assert verify_lemma(7, 200, d_max=3) == (39, [])
    for lemma in (0, 8, 11):
        with pytest.raises(ValueError, match="^lemma must be one of"):
            verify_lemma(lemma, 200)


def test_lemma5_scan_empty_and_validates():
    assert lemma5_scan(100) == []
    assert lemma5_scan(10**4) == []
    with pytest.raises(ValueError):
        lemma5_scan(2)
    # 17 stays out because 2 is a residue there (6^2 = 36 = 2 mod 17).
    assert legendre_symbol(2, 17) == 1


def test_lemma5_class_agrees_with_prime_profile():
    # The sweep's kernel and the public classification of -1, 2 and eps
    # answer the same membership question at every odd prime to 10^5.
    for p in sieve_primes(10**5)[1:]:
        prof = prime_profile(p)
        in_class = (prof.class_minus_one, prof.class_two, prof.class_epsilon) == (QR, QNR, QR)
        assert _lemma5_hit(p) == in_class, p


def test_lemma6_examples():
    assert lemma6_check(13) == (0, 2, True)
    assert lemma6_check(5) == (0, 0, True)
    n1, n2, holds = lemma6_check(29)
    assert n1 + n2 == 6 and holds


def test_lemma6_sweep_1000():
    for p in sieve_primes(1000):
        if p % 8 == 5:
            assert lemma6_check(p)[2], p


def test_lemma6_negative_control_at_17():
    # At p = 1 (mod 8) the identity genuinely fails; the checker must not
    # accept such p silently.
    with pytest.raises(HypothesisError):
        lemma6_check(17)
    n1 = census(17).n1
    n2 = census(17).n2
    assert n1 + n2 == 2
    assert n1 + n2 != (17 - 5) // 4


def test_lemma8_examples():
    assert lemma8_fraction(20) == (3, 4, Fraction(3, 7))
    assert lemma8_fraction(100) == (11, 13, Fraction(11, 24))
    with pytest.raises(ValueError):
        lemma8_fraction(2)


def _public_functions():
    """{qualified name: function} for every public function and method in the curvecount package."""
    found = {}
    for info in pkgutil.walk_packages(curvecount.__path__, "curvecount."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = {name: obj}
            if inspect.isclass(obj):
                members = {f"{name}.{attr}": getattr(f, "fget", f) for attr, f in vars(obj).items()
                           if not attr.startswith("_") or attr.endswith("__")}
            for qualname, f in members.items():
                if inspect.isfunction(inspect.unwrap(f)):
                    found[f"{module.__name__}.{qualname}"] = inspect.unwrap(f)
    return found


def test_public_annotations_resolve():
    hints = {}
    for qualname, f in _public_functions().items():
        try:
            hints[qualname] = typing.get_type_hints(f)
        except NameError as exc:
            pytest.fail(f"{qualname}: {exc}")
    assert len(hints) > 50
    assert hints["curvecount.residue_lemmas.lemma8_fraction"] == {"limit": int, "return": tuple[int, int, Fraction]}
    assert hints["curvecount.rational_points.d_from_param"]["return"] is Fraction
    assert hints["curvecount.rational_points.points_from_param"]["return"].__args__[0] is Fraction
    assert hints["curvecount.rational_points.double_point_rational"]["curve"] is Curve
