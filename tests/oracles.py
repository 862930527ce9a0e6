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


def collision_groups_by_sorting(bound):
    """Groups of coprime (e, m) pairs sharing V = e*m*(m+e)^2.

    Sorts all (V, e, m) triples and walks adjacent runs; no hashing, no
    shared code with the search under test.  Returns {V: [(e, m), ...]}
    for runs of length >= 2, members in (e, m) order.
    """
    triples = sorted((e * m * (m + e) ** 2, e, m) for e, m in coprime_pairs(bound))
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
