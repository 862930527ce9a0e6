import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from curvecount import rational_points
from curvecount.errors import TangentUndefinedError
from curvecount.modmath import QNR, prime_profile, sieve_primes
from curvecount.collisions import CollisionGroup, collision_search
from curvecount.point_count import Curve
from curvecount.rational_points import (
    ParamQuadruple,
    RationalPoint,
    d_from_param,
    double_point_rational,
    find_points_for_d,
    lemma11_applicable,
    lemma11_exhaustive,
    points_from_param,
    pythagorean_from_param,
)
from oracles import beta_quadruples_by_double_loop, collision_groups_by_sorting, coprime_pairs


def test_pythagorean_examples():
    assert pythagorean_from_param(2, 2, 1) == (4, 3, 5)
    assert pythagorean_from_param(1, 3, 1) == (3, 4, 5)
    assert pythagorean_from_param(2, 3, 2) == (12, 5, 13)


def test_pythagorean_parity_rejected():
    # h(m^2 - e^2) = 3, so the even leg is not integral
    with pytest.raises(ValueError):
        pythagorean_from_param(1, 2, 1)
    with pytest.raises(ValueError):
        pythagorean_from_param(1, 1, 1)
    with pytest.raises(ValueError):
        pythagorean_from_param(0, 2, 1)


def test_pythagorean_random_triples():
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randrange(2, 40)
        e = rng.randrange(1, m)
        h = rng.randrange(1, 10)
        if h * (m * m - e * e) % 2 != 0:
            h *= 2
        a, b, c = pythagorean_from_param(h, m, e)
        assert a * a + b * b == c * c


def test_param_quadruple_validation():
    ParamQuadruple(4, 1, 2, 1)
    with pytest.raises(ValueError, match="^k and j must be >= 1, got k=0, j=1$"):
        ParamQuadruple(0, 1, 2, 1)
    with pytest.raises(ValueError, match="^need m > e >= 1, got m=1, e=1$"):
        ParamQuadruple(1, 1, 1, 1)
    with pytest.raises(ValueError, match="^m and e must be coprime, got m=4, e=2$"):
        ParamQuadruple(1, 1, 4, 2)


def test_records_hold_fractions_and_refuse_assignment():
    point = RationalPoint(1, 2)
    assert type(point.x) is Fraction and type(point.y) is Fraction
    assert repr(point) == "RationalPoint(x=Fraction(1, 1), y=Fraction(2, 1))"
    group = CollisionGroup(8820, ((1, 20), (5, 9)), (7980, 2520), 8820)
    for record, field in ((point, "x"), (ParamQuadruple(4, 1, 2, 1), "k"), (group, "v")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_collision_group_survives_pickle():
    # Forked workers send their groups back pickled.
    group = CollisionGroup(8820, ((1, 20), (5, 9)), (7980, 2520), 8820)
    back = pickle.loads(pickle.dumps(group))
    assert type(back) is CollisionGroup and back == group


def test_d_from_param_examples():
    assert d_from_param(ParamQuadruple(4, 1, 2, 1)) == 6
    assert d_from_param(ParamQuadruple(2, 1, 2, 1)) == Fraction(3, 2)
    # k = 2j leaves only the (m^2 - e^2)/(em) part
    assert d_from_param(ParamQuadruple(6, 3, 2, 1)) == Fraction(3, 2)


def test_points_from_param_examples():
    d, p1, p2 = points_from_param(ParamQuadruple(4, 1, 2, 1))
    assert d == 6
    assert (p1.x, p1.y) == (18, 72)
    assert (p2.x, p2.y) == (-2, -8)

    d, p1, p2 = points_from_param(ParamQuadruple(2, 1, 2, 1))
    assert d == Fraction(3, 2)
    assert (p1.x, p1.y) == (Fraction(9, 2), 9)
    assert (p2.x, p2.y) == (Fraction(-1, 2), -1)


def test_points_from_param_random_identities():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        m = rng.randrange(2, 30)
        e = rng.randrange(1, m)
        if gcd(m, e) != 1:
            continue
        q = ParamQuadruple(rng.randrange(1, 12), rng.randrange(1, 12), m, e)
        d, p1, p2 = points_from_param(q)
        beta = Fraction(q.k, q.j)
        assert p1.x * p2.x == -d * d
        assert p1.y == beta * p1.x and p2.y == beta * p2.x
        assert p1.on_curve(-d * d) and p2.on_curve(-d * d)
        checked += 1


def test_double_point_examples():
    curve = Curve(-36, 0)
    doubled = double_point_rational(curve, RationalPoint(-3, 9))
    assert (doubled.x, doubled.y) == (Fraction(25, 4), Fraction(35, 8))
    doubled = double_point_rational(curve, RationalPoint(18, 72))
    assert (doubled.x, doubled.y) == (Fraction(25, 4), Fraction(-35, 8))


def test_double_point_errors():
    curve = Curve(-36, 0)
    with pytest.raises(TangentUndefinedError):
        double_point_rational(curve, RationalPoint(6, 0))
    with pytest.raises(ValueError):
        double_point_rational(curve, RationalPoint(5, 5))


def test_double_point_iterates_on_curve():
    curve = Curve(-36, 0)
    point = RationalPoint(-3, 9)
    for _ in range(4):
        point = double_point_rational(curve, point)
        assert point.on_curve(-36, 0)
    # denominators explode quadratically but stay exact
    assert point.x.denominator > 10**6


def test_find_points_d6_smallest_bound():
    points = find_points_for_d(6, 2)
    assert [(p.x, p.y) for p in points] == [(-2, -8), (-2, 8), (18, -72), (18, 72)]


def test_find_points_d6_wider():
    points = {(p.x, p.y) for p in find_points_for_d(6, 16)}
    assert {(12, 36), (-3, 9), (18, 72), (-2, 8)} <= points


def test_find_points_d5_frozen():
    points = find_points_for_d(5, 9)
    assert [(p.x, p.y) for p in points] == [
        (Fraction(-5, 9), Fraction(-100, 27)),
        (Fraction(-5, 9), Fraction(100, 27)),
        (-4, -6),
        (-4, 6),
        (Fraction(25, 4), Fraction(-75, 8)),
        (Fraction(25, 4), Fraction(75, 8)),
        (45, -300),
        (45, 300),
    ]


def test_find_points_all_verify_exactly():
    for d in (5, 6, 10):
        for p in find_points_for_d(d, 30):
            assert p.y * p.y == p.x**3 - d * d * p.x


def test_find_points_square_d_empty():
    assert find_points_for_d(1, 200) == []
    assert find_points_for_d(4, 100) == []


def test_find_points_reads_lemma11_search(monkeypatch):
    # One search walks the (m, e) pairs: find_points_for_d reads
    # lemma11_exhaustive's quadruples and runs no pair loop of its own.
    calls = []
    for name in ("lemma11_exhaustive", "_qualifying_pairs"):
        inner = getattr(rational_points, name)
        monkeypatch.setattr(rational_points, name,
                            lambda *args, name=name, inner=inner: calls.append(name) or inner(*args))
    points = find_points_for_d(6, 16)
    assert calls == ["lemma11_exhaustive", "_qualifying_pairs"]
    assert [(p.x, p.y) for p in points] == [
        (-3, -9), (-3, 9), (-2, -8), (-2, 8), (12, -36), (12, 36), (18, -72), (18, 72),
    ]


def test_find_points_validation():
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        find_points_for_d(0, 10)
    with pytest.raises(ValueError, match="bound must be >= 2, got 1"):
        find_points_for_d(6, 1)
    with pytest.raises(ValueError, match="bound must be >= 2, got 1"):  # the bound is checked first
        find_points_for_d(0, 1)


def test_lemma11_applicable():
    assert lemma11_applicable(3)
    assert lemma11_applicable(11)
    assert lemma11_applicable(19)
    assert not lemma11_applicable(5)
    assert not lemma11_applicable(7)  # 2 is a residue mod 7
    assert not lemma11_applicable(17)
    assert not lemma11_applicable(2)
    assert not lemma11_applicable(9)
    assert not lemma11_applicable(1)
    assert not lemma11_applicable(-3)


def test_lemma11_applicable_agrees_with_prime_profile():
    for d in sieve_primes(10**5)[1:]:
        prof = prime_profile(d)
        assert lemma11_applicable(d) == ((prof.class_minus_one, prof.class_two) == (QNR, QNR)), d


def test_lemma11_exhaustive_control():
    hits = lemma11_exhaustive(6, 10)
    assert [(q.k, q.j, q.m, q.e) for q in hits] == [(4, 1, 2, 1), (3, 1, 3, 1)]
    assert not lemma11_applicable(6)


def test_lemma11_exhaustive_empty_for_applicable():
    assert lemma11_exhaustive(3, 200) == []
    assert lemma11_exhaustive(11, 100) == []


def test_lemma11_exhaustive_refuses_d_below_one():
    with pytest.raises(ValueError, match="^d must be >= 1, got 0$"):
        lemma11_exhaustive(0, 10)


# Every d up to 130 covers squares, primes 3 (mod 8) and composites with
# many divisors; the larger ones add more prime factors of d, and one d
# far beyond any sieve.
SHAPED_SEARCH_D = [*range(1, 131), 210, 2310, 30030, 10**12 + 39]
SHAPED_SEARCH_BOUNDS = (0, 1, 2, 3, 17, 60, 200)


def test_shaped_search_matches_double_loop():
    def point_order(point):
        x, y = point
        return x.numerator, x.denominator, y.numerator, y.denominator

    top = max(SHAPED_SEARCH_BOUNDS)
    for d in SHAPED_SEARCH_D:
        rows = beta_quadruples_by_double_loop(d, top)  # m ascending, so each bound is a prefix
        for bound in SHAPED_SEARCH_BOUNDS:
            expected = [row for row in rows if row[2] <= bound]
            assert [(q.k, q.j, q.m, q.e) for q in lemma11_exhaustive(d, bound)] == expected, (d, bound)
            if bound < 2:
                continue
            points = set()
            for k, j, m, e in expected:
                for x in (Fraction(d * (m + e), m - e), Fraction(-d * (m - e), m + e)):
                    points |= {(x, Fraction(k, j) * x), (x, -Fraction(k, j) * x)}
            got = [(p.x, p.y) for p in find_points_for_d(d, bound)]
            assert got == sorted(points, key=point_order), (d, bound)


def test_collision_search_no_group_below_20():
    assert len(coprime_pairs(10)) == 31
    assert collision_search(10) == []
    assert collision_search(19) == []


def test_collision_search_first_group():
    groups = collision_search(20)
    assert len(groups) == 1
    group = groups[0]
    assert group.v == 8820
    assert group.shared_x == 8820
    assert group.members == ((1, 20), (5, 9))
    assert group.d_values == (7980, 2520)


def test_collision_search_matches_oracle(fan_outs_forced):
    # Bound 300 has 191 class pairs, so at 3 workers each worker takes
    # several batches of them.
    for bound in (2, 3, 20, 50, 100, 300):
        for workers in (1, 3):
            got = {g.v: list(g.members) for g in collision_search(bound, workers=workers)}
            assert got == collision_groups_by_sorting(bound)
    assert fan_outs_forced[-3:] == [3, 3, 3]


def test_collision_search_three_member_group(fan_outs_forced):
    # The first V shared by three coprime pairs; the search must report
    # all three, not only a pair of them.
    for workers in (1, 3):
        groups = {g.v: g for g in collision_search(153, workers=workers)}
        group = groups[3628548]
        assert group.members == ((1, 153), (9, 68), (17, 49))
    assert fan_outs_forced == [3]


def test_collision_search_worker_invariance(fan_outs_forced):
    for bound in (60, 300):
        reference = collision_search(bound)
        assert [g.v for g in reference] == sorted(g.v for g in reference)
        for workers in (2, 3, 4):
            assert collision_search(bound, workers=workers) == reference
    assert fan_outs_forced[-3:] == [2, 3, 4]


def test_collision_search_non_coprime_lattice(fan_outs_forced):
    groups = collision_search(20, coprime_only=False)
    by_v = {g.v: g.members for g in groups}
    assert by_v[8820] == ((1, 20), (5, 9))
    for bound in (2, 3, 20, 100, 200):
        for workers in (1, 2):
            got = {g.v: list(g.members) for g in collision_search(bound, workers=workers, coprime_only=False)}
            assert got == collision_groups_by_sorting(bound, coprime=False)
    assert fan_outs_forced[-1:] == [2]


def square_part(x):
    """The largest k with k^2 | x, by trial division."""
    k, p = 1, 2
    while p * p <= x:
        while x % (p * p) == 0:
            x //= p * p
            k *= p
        p += 1
    return k


def passes_least_k_test(e, m):
    k = square_part(e * m)
    return (e + m) ** 2 * k**4 > 4 * (k + 1) ** 4 * e * m


def test_every_group_has_distinct_k_and_a_least_k_member_that_passes():
    # The lemma collision_search rests on, over the sorting oracle's
    # groups at every bound from 2 to 300: a group at bound B is the
    # members of a group at 300 with m <= B, when two or more are left.
    for coprime in (True, False):
        groups = collision_groups_by_sorting(300, coprime=coprime)
        for bound in range(2, 301):
            for v, members in groups.items():
                members = [(e, m) for e, m in members if m <= bound]
                if len(members) < 2:
                    continue
                ks = [square_part(e * m) for e, m in members]
                assert len(set(ks)) == len(ks), (bound, v, members)
                e, m = members[ks.index(min(ks))]
                assert passes_least_k_test(e, m), (bound, v, members)


def test_group_reached_from_two_members_comes_out_whole(fan_outs_forced):
    # (25, 836) has the least k, 10, and finds both others; (76, 539),
    # k = 14, passes the test too and finds (99, 475), k = 15.  The two
    # lie in different class pairs (sq(e), sq(m)), (5, 2) and (2, 7),
    # so batches run apart and their finds must be merged into one group.
    v, members = 15493608900, ((25, 836), (76, 539), (99, 475))
    assert [square_part(e * m) for e, m in members] == [10, 14, 15]
    assert passes_least_k_test(25, 836) and passes_least_k_test(76, 539)
    for workers in (1, 2, 3, 4):
        groups = collision_search(1000, workers=workers)
        assert [g.v for g in groups] == sorted({g.v for g in groups})
        assert {g.v: g.members for g in groups}[v] == members, workers
    assert fan_outs_forced == [2, 3, 4]


def test_collision_search_matches_oracle_at_every_bound_to_200(fan_outs_forced):
    for bound in range(2, 201):
        for coprime in (True, False):
            want = collision_groups_by_sorting(bound, coprime=coprime)
            for workers in (1, 2):
                got = collision_search(bound, workers=workers, coprime_only=coprime)
                assert {g.v: list(g.members) for g in got} == want, (bound, coprime, workers)
    assert fan_outs_forced and set(fan_outs_forced) == {2}


def test_collision_search_memory_is_bounded():
    # Holding all of the about 110000 coprime pairs below bound 600 at
    # once peaks near 27 MB; the least-k walk holds two tables of
    # bound + 1 entries and the groups, and peaked at 0.1 MB.
    tracemalloc.start()
    try:
        collision_search(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_collision_search_validation():
    with pytest.raises(ValueError):
        collision_search(1)
    with pytest.raises(ValueError):
        collision_search(10, workers=0)


def test_collision_group_rejects_bad_data():
    with pytest.raises(ValueError, match="^a collision group needs at least two members$"):
        CollisionGroup(8820, ((1, 20),), (7980,), 8820)
    with pytest.raises(ValueError, match="^members must be distinct$"):
        CollisionGroup(8820, ((1, 20), (1, 20)), (7980, 7980), 8820)
    with pytest.raises(ValueError, match="^shared_x 8821 != v 8820$"):
        CollisionGroup(8820, ((1, 20), (5, 9)), (7980, 2520), 8821)
    with pytest.raises(ValueError, match="^d_values and members must pair up$"):
        CollisionGroup(8820, ((1, 20), (5, 9)), (7980,), 8820)
    with pytest.raises(ValueError, match=r"^\(1, 20\) does not share v = 18$"):
        CollisionGroup(18, ((1, 20), (5, 9)), (7980, 2520), 18)
    with pytest.raises(ValueError, match=r"^wrong d for \(5, 9\): 2521$"):
        CollisionGroup(8820, ((1, 20), (5, 9)), (7980, 2521), 8820)
