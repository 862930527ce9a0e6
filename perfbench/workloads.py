"""Seed-generated op lists for the three benchmark workloads.

An op is one `curvecount` CLI call.  The same seed always yields the
same list; seed-drawn values are curve parameters, `s` values and small
jitters on limits, chosen so that the amount of work barely depends on
the seed (run-to-run spreads are taken across seeds).

Known seed defects these workloads expose.  Each one is counted as a
failed op and never hidden, so a fix shows as a drop in the failed
count (`failed_frac`):

* DISCRIMINANT -- `Curve.discriminant` computes -16(4a^3 - 27b^2)
  instead of -16(4a^3 + 27b^2).  Every `b != 0` curve gets the wrong
  set of bad primes: `ap-table --a 3 --b 5` emits the bad prime 29 and
  drops the good prime 7.  `brute_verify` runs `ap-table` on that curve
  and on a seed-drawn `b != 0` curve.
* DIGIT_LIMIT -- `lseries --exact` prints the product with str(int), so
  it crashes once numerator or denominator passes Python's 4300-digit
  int-to-str limit: at s = 1 between limit 11000 and 12000 (about 11260
  to 11700, depending on d), at s = 3 between 2000 and 3000 (about
  2380).  `twist_sweep` runs the exact product on both sides of each
  point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DISCRIMINANT = "discriminant-sign"
DIGIT_LIMIT = "int-str-digit-limit"

# Limits of the exact products, one below and one above each crash point.
EXACT_S1_LIMITS = (11000, 12000)
EXACT_S3_LIMITS = (2000, 3000)

# Primes d = 3 (mod 8), the hypothesis of lemma 11.
LEMMA11_PRIMES = (3, 11, 19, 43, 59, 67, 83, 107, 131, 139, 163, 179, 211, 227, 251, 283)


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand, its options, and the worker counts to run.

    `workers` is () for subcommands without --workers, (1,) for an op
    that runs once at one worker, and (1, 2) for an op whose stdout must
    be byte-identical at both worker counts.
    """

    kind: str
    params: dict = field(hash=False)
    workers: tuple[int, ...] = ()

    def argv(self, workers: int | None = None) -> list[str]:
        out = [self.kind]
        for key, value in self.params.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                out.append(flag)
            elif value is not False:
                out += [flag, str(value)]
        if workers is not None:
            out += ["--workers", str(workers)]
        return out

    def label(self) -> str:
        return " ".join(self.argv())


def _jitter(rng: random.Random, base: int) -> int:
    """base plus up to 1%, so limits vary by seed but work barely does."""
    return base + rng.randrange(base // 100 + 1)


def _s_value(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def twist_sweep(rng: random.Random) -> list[Op]:
    """Twist pair y^2 = x^3 -+ d^2 x: the census-bound closed-form path.

    The minus-twist ap-table runs as one cache chain (cold, extend,
    warm) at one worker, because a repeat at two workers would no
    longer be cold.  Float products and the ratio are checked against
    the traces the ap-table ops emitted.
    """
    d = rng.randint(2, 60)
    minus = {"a": -d * d, "b": 0}
    plus = {"a": d * d, "b": 0}
    chain = "minus.cache"
    ops = [
        Op("ap-table", {**minus, "limit": 6000, "cache": chain}, (1,)),
        Op("ap-table", {**minus, "limit": EXACT_S1_LIMITS[1], "cache": chain}, (1,)),
        Op("ap-table", {**minus, "limit": EXACT_S1_LIMITS[1], "cache": chain}, (1,)),
        Op("ap-table", {**plus, "limit": _jitter(rng, 6000)}, (1, 2)),
        Op("lseries", {**minus, "s": _s_value(rng, 1.0, 2.5), "limit": _jitter(rng, 6000)}),
        Op("lseries", {**plus, "s": _s_value(rng, 1.0, 2.5), "limit": 6000}),
    ]
    for s, limits in ((1, EXACT_S1_LIMITS), (3, EXACT_S3_LIMITS)):
        for limit in limits:
            ops.append(Op("lseries", {**minus, "s": s, "limit": limit, "exact": True}))
    ops.append(
        Op(
            "ratio",
            {"a1": -d * d, "b1": 0, "a2": d * d, "b2": 0, "s": _s_value(rng, 1.0, 2.0), "limit": 6000},
        )
    )
    return ops


# Base limits put every lemma sweep near half a second at one worker.
LEMMA_LIMITS = {1: 1000, 2: 6000, 3: 800, 4: 900, 5: 60000, 6: 8000, 7: 4000}


def brute_verify(rng: random.Random) -> list[Op]:
    """Brute-force reference counts: lemma sweeps and non-closed-form curves."""
    ops = [
        Op(
            "lemma-verify",
            {"lemma": lemma, "limit": _jitter(rng, base), "d_max": 20, "samples": 20, "seed": rng.randrange(1000)},
            (1, 2),
        )
        for lemma, base in LEMMA_LIMITS.items()
    ]
    nonsquare = rng.choice([n for n in range(2, 31) if int(n**0.5) ** 2 != n])
    curves = [
        (3, 5),
        (rng.choice([a for a in range(-9, 10) if a]), rng.randint(1, 9)),
        (rng.choice((-1, 1)) * nonsquare, 0),
    ]
    for a, b in curves:
        ops.append(Op("ap-table", {"a": a, "b": b, "limit": _jitter(rng, 2000)}, (1, 2)))
    d = rng.randint(2, 40)
    ops.append(Op("ap-table", {"a": -d * d, "b": 0, "limit": 2000, "cross_validate": True}, (1, 2)))
    return ops


# Bound 1000 puts the collision dictionary near 100 MB at one worker; it
# is fixed because collision work grows with the square of the bound.
COLLISION_BOUND = 1000
POINT_BOUND = 300


def rational_search(rng: random.Random) -> list[Op]:
    """Rational points: Fraction, isqrt and gcd loops, no counts mod p."""
    square = rng.randint(2, 9) ** 2
    others = rng.sample([n for n in range(7, 61) if int(n**0.5) ** 2 != n], 2)
    ops = [Op("find-points", {"d": d, "bound": POINT_BOUND}) for d in (5, 6, square, *others)]
    for d in rng.sample(LEMMA11_PRIMES, 3) + [6]:
        ops.append(Op("lemma11", {"d": d, "bound": POINT_BOUND}))
    ops.append(Op("collisions", {"bound": COLLISION_BOUND}, (1, 2)))
    return ops


WORKLOADS = {
    "twist_sweep": twist_sweep,
    "brute_verify": brute_verify,
    "rational_search": rational_search,
}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one workload for one seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
