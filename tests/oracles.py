"""Independent brute-force oracles the library is tested against.

Everything here is deliberately dumb: trial division, full enumeration,
O(p^2) double loops.  None of it shares code with the package under test.
"""


def primes_by_trial_division(limit):
    """All primes <= limit, each checked by dividing up to its square root."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def squares_by_enumeration(p):
    """QR_p as a set, by squaring every unit."""
    return {x * x % p for x in range(1, p)}


def root_counts_by_enumeration(p):
    """[#{y : y^2 = t mod p} for t in 0..p-1], by squaring every y mod p."""
    counts = [0] * p
    for y in range(p):
        counts[y * y % p] += 1
    return counts


def census_by_enumeration(p):
    """(lemma 2 count, n1, n2) at p, from the sets of squares and fourth powers.

    lemma 2 counts the nonzero squares t with t - 1 a nonzero square; n1
    and n2 count the nonzero fourth powers t with t - 1, resp. t + 1, a
    nonzero square.
    """
    squares = squares_by_enumeration(p)
    fourths = {pow(y, 4, p) for y in range(1, p)}
    return (
        sum(1 for t in squares if (t - 1) % p in squares),
        sum(1 for t in fourths if (t - 1) % p in squares),
        sum(1 for t in fourths if (t + 1) % p in squares),
    )


def lemma4_sides_by_definition(p):
    """Both sides of identity 4 at p = 1 (mod 4), as p bytes laid out like the library's table.

    At each nonzero square t, bit 0 is the left side: t^2 - 1 is a nonzero
    residue, by Euler's criterion.  At every t, bit 1 is the right side:
    2t = r + 1/r mod p for a unit r outside {+-1, +-eps}, with 1/r from
    pow(r, -1, p) and eps found by trying every unit.
    """
    eps = next(e for e in range(2, p) if e * e % p == p - 1)
    chords = {(r + pow(r, -1, p)) % p for r in range(1, p) if r not in (1, p - 1, eps, p - eps)}
    sides = bytearray(p)
    for t in range(p):
        sides[t] = 2 * (2 * t % p in chords)
    for y in range(1, p):
        t = y * y % p
        left = (t * t - 1) % p
        sides[t] |= left != 0 and pow(left, (p - 1) // 2, p) == 1
    return bytes(sides)


def legendre_by_enumeration(a, p):
    """Legendre symbol from the full square table, no Euler criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if a in squares_by_enumeration(p) else -1


def count_points_double_loop(a, b, p):
    """Affine solutions of y^2 = x^3 + a x + b mod p, trying every (x, y).

    O(p^2); keep p <= 200 or so.
    """
    count = 0
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                count += 1
    return count


def exact_euler_product(a, b, s, limit):
    """prod of 1/(1 - a_p p^-s + p^(1-2s)) over good odd primes p <= limit.

    One Fraction per prime, multiplied in ascending p.  A prime is bad
    when the cubic has a root mod p that its derivative shares; a_p is
    p minus the double-loop count.  Keep limit <= 150 or so.
    """
    from fractions import Fraction

    value = Fraction(1)
    for p in primes_by_trial_division(limit):
        if p == 2 or any((r**3 + a * r + b) % p == 0 and (3 * r * r + a) % p == 0 for r in range(p)):
            continue
        a_p = p - count_points_double_loop(a, b, p)
        value /= 1 - Fraction(a_p, p**s) + Fraction(1, p ** (2 * s - 1))
    return value


def singular_by_shared_root(a, b):
    """Whether x^3 + a x + b has a repeated root, with no discriminant formula.

    A repeated root is a common root of the cubic and its derivative
    3x^2 + a.  It is rational (the root of their gcd, or 0 for a triple
    root), so, the cubic being monic, an integer of size at most |a|.
    """
    return any(r**3 + a * r + b == 0 and 3 * r * r + a == 0 for r in range(-abs(a), abs(a) + 1))


def coprime_pairs(bound):
    """All (e, m) with 1 <= e < m <= bound and gcd(e, m) = 1."""
    from math import gcd

    return [(e, m) for m in range(2, bound + 1) for e in range(1, m) if gcd(e, m) == 1]


def all_pairs(bound):
    """All (e, m) with 1 <= e < m <= bound."""
    return [(e, m) for m in range(2, bound + 1) for e in range(1, m)]


def collision_groups_by_sorting(bound, coprime=True):
    """Groups of coprime (e, m) pairs sharing V = e*m*(m+e)^2.

    Sorts all (V, e, m) triples and walks adjacent runs; no hashing, no
    shared code with the search under test.  Returns {V: [(e, m), ...]}
    for runs of length >= 2, members in (e, m) order.  coprime=False
    groups every pair of all_pairs(bound) instead.
    """
    pairs = coprime_pairs(bound) if coprime else all_pairs(bound)
    triples = sorted((e * m * (m + e) ** 2, e, m) for e, m in pairs)
    groups = {}
    run = [triples[0]] if triples else []
    for t in triples[1:]:
        if run and t[0] == run[-1][0]:
            run.append(t)
        else:
            if len(run) >= 2:
                groups[run[0][0]] = sorted((e, m) for _, e, m in run)
            run = [t]
    if len(run) >= 2:
        groups[run[0][0]] = sorted((e, m) for _, e, m in run)
    return groups


def beta_quadruples_by_double_loop(d, bound):
    """(k, j, m, e) for every coprime m > e >= 1, m <= bound, with k/j rational.

    Tries every pair, m then e ascending: k/j = sqrt(t)/(m^2 - e^2) in
    lowest terms whenever t = 4d em(m^2 - e^2) is a perfect square.
    """
    from math import gcd, isqrt

    out = []
    for m in range(2, bound + 1):
        for e in range(1, m):
            if gcd(m, e) != 1:
                continue
            leg = m * m - e * e
            t = 4 * d * e * m * leg
            root = isqrt(t)
            if root * root == t:
                g = gcd(root, leg)
                out.append((root // g, leg // g, m, e))
    return out
