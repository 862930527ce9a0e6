"""Output checker for benchmark ops, built on oracles of its own.

Nothing here imports `curvecount`: primes come from a separate sieve,
point counts from Euler's criterion, rational points from an integer
square test, collision groups from a sort.  A wrong output, an
unexpected exit code or a crash is a failed op.  A failure whose
signature is that of a known seed defect (see workloads.py) is still a
failure; it is only labelled, so an unexpected failure can be told
apart from it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from workloads import DIGIT_LIMIT, DISCRIMINANT, Op

# Primes per ap-table op whose count is redone by a Legendre sum.
RECOUNT_SAMPLES = 4
REL_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What one CLI child returned."""

    exit_code: int
    stdout: bytes
    stderr: bytes


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known: str | None = None


OK = Verdict(True)


class CheckFailed(Exception):
    def __init__(self, reason: str, known: str | None = None):
        super().__init__(reason)
        self.known = known


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return math.isclose(x, y, rel_tol=tol, abs_tol=1e-300)


# ------------------------------------------------------------------ oracles


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by an odd-only sieve."""
    if n < 2:
        return []
    odd = bytearray([1]) * ((n - 1) // 2)  # odd[i] stands for 2i + 3
    for i in range(len(odd)):
        q = 2 * i + 3
        if q * q > n:
            break
        if odd[i]:
            start = (q * q - 3) // 2
            odd[start::q] = bytes(len(range(start, len(odd), q)))
    return [2] + [2 * i + 3 for i, flag in enumerate(odd) if flag]


def is_prime(n: int) -> bool:
    """Trial division; only used on small d."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def good_primes(a: int, b: int, limit: int) -> list[int]:
    """Odd primes <= limit not dividing -16(4a^3 + 27b^2)."""
    disc = 4 * a**3 + 27 * b**2
    return [p for p in primes_upto(limit) if p != 2 and disc % p]


def legendre_trace(a: int, b: int, p: int) -> int:
    """a_p = -sum_x chi(x^3 + ax + b), chi by Euler's criterion."""
    half = (p - 1) // 2
    total = 0
    for x in range(p):
        t = (x * x * x + a * x + b) % p
        if t:
            total += 1 if pow(t, half, p) == 1 else -1
    return -total


def log_euler(traces: dict[int, int], primes: list[int], s: float) -> float:
    """log of prod (1 - a_p p^-s + p^(1-2s))^-1 over primes."""
    return -math.fsum(math.log(1.0 - traces[p] * p**-s + p ** (1.0 - 2.0 * s)) for p in primes)


def euler_factor(a_p: int, p: int, s: float) -> float:
    return 1.0 / (1.0 - a_p * p**-s + p ** (1.0 - 2.0 * s))


def coprime_pairs(bound: int) -> list[tuple[int, int]]:
    """(e, m) with 1 <= e < m <= bound and gcd(e, m) = 1."""
    return [(e, m) for m in range(2, bound + 1) for e in range(1, m) if gcd(e, m) == 1]


def qualifying_betas(d: int, bound: int) -> dict[tuple[int, int], Fraction]:
    """(e, m) -> beta for pairs with beta^2 = 4d em/(m^2 - e^2) rational.

    q = X/Y is a rational square exactly when X*Y is an integer square;
    the factor 4 is already square, so d em (m^2 - e^2) is tested.
    """
    out = {}
    for e, m in coprime_pairs(bound):
        n = d * e * m * (m * m - e * e)
        r = isqrt(n)
        if r * r == n:
            q = Fraction(4 * d * e * m, m * m - e * e)
            out[(e, m)] = Fraction(isqrt(q.numerator), isqrt(q.denominator))
    return out


def collision_groups(bound: int) -> list[dict]:
    """V = em(m+e)^2 values shared by >= 2 coprime pairs, by sorting."""
    keyed = sorted((e * m * (m + e) ** 2, e, m) for e, m in coprime_pairs(bound))
    groups = []
    i = 0
    while i < len(keyed):
        j = i
        while j < len(keyed) and keyed[j][0] == keyed[i][0]:
            j += 1
        if j - i >= 2:
            members = [[e, m] for _, e, m in keyed[i:j]]
            groups.append(
                {
                    "v": keyed[i][0],
                    "members": members,
                    "d_values": [e * m * (m * m - e * e) for e, m in members],
                    "shared_x": keyed[i][0],
                }
            )
        i = j
    return groups


def _parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _rows(stdout: bytes) -> list[dict]:
    try:
        return [json.loads(line) for line in stdout.decode().splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"unparseable output: {exc}") from None


# ------------------------------------------------------------------ checker


class Checker:
    """Checks op outcomes; keeps the traces it has verified for later ops.

    Verdicts are cached per (op, outcome), since every round of a run
    repeats the same ops and mostly reproduces the same bytes.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.traces: dict[tuple[int, int], dict[int, int]] = {}
        self._verdicts: dict[tuple, Verdict] = {}
        self._oracle: dict[tuple, object] = {}

    def check(self, index: int, op: Op, outcome: Outcome) -> Verdict:
        key = (index, outcome.exit_code, hashlib.sha256(outcome.stdout).digest(), _crash_line(outcome))
        if key not in self._verdicts:
            self._verdicts[key] = self._check(index, op, outcome)
        return self._verdicts[key]

    @staticmethod
    def check_pair(one: Outcome, two: Outcome) -> Verdict:
        """Worker invariance: stdout must not depend on --workers."""
        if one.stdout != two.stdout:
            return Verdict(False, "stdout differs between --workers 1 and --workers 2")
        return OK

    def sampled_primes(self, index: int, primes: list[int]) -> list[int]:
        """The primes of op `index` whose counts are redone from scratch."""
        rng = random.Random(f"recount:{self.seed}:{index}")
        return sorted(rng.sample(primes, min(RECOUNT_SAMPLES, len(primes))))

    def _check(self, index: int, op: Op, outcome: Outcome) -> Verdict:
        crash = _crash_line(outcome)
        if crash:
            known = DIGIT_LIMIT if "for integer string conversion" in crash else None
            return Verdict(False, f"crashed: {crash}", known)
        try:
            getattr(self, "_" + op.kind.replace("-", "_"))(index, op.params, outcome)
        except CheckFailed as exc:
            return Verdict(False, str(exc), exc.known)
        return OK

    def _memo(self, key: tuple, compute):
        if key not in self._oracle:
            self._oracle[key] = compute()
        return self._oracle[key]

    def _trace_table(self, a: int, b: int, primes: list[int]) -> dict[int, int]:
        """Verified traces for these primes, recounting any not yet seen."""
        table = self.traces.setdefault((a, b), {})
        for p in primes:
            if p not in table:
                table[p] = legendre_trace(a, b, p)
        return table

    # One method per subcommand; each raises CheckFailed on a bad output.

    def _ap_table(self, index: int, params: dict, outcome: Outcome) -> None:
        a, b, limit = params["a"], params["b"], params["limit"]
        if 4 * a**3 + 27 * b**2 == 0:
            _require(outcome.exit_code == 2 and not outcome.stdout, "singular curve accepted")
            return
        if 4 * a**3 - 27 * b**2 == 0 and outcome.exit_code == 2:
            raise CheckFailed("nonsingular curve rejected as singular", DISCRIMINANT)
        _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}")
        rows = _rows(outcome.stdout)
        emitted = [row.get("p") for row in rows]
        expected = self._memo(("good", a, b, limit), lambda: good_primes(a, b, limit))
        problems = []
        expected_set = set(expected)
        for row in rows:
            p = row.get("p")
            if p not in expected_set:
                continue
            if row.get("a_p") != p - row.get("n_p", 0) or row["a_p"] ** 2 >= 4 * p:
                problems.append(f"bad record {row}")
            elif params.get("cross_validate") and row.get("brute_np") != row["n_p"]:
                problems.append(f"cross-validation mismatch {row}")
        by_p = {row["p"]: row["a_p"] for row in rows if row.get("p") in expected_set and "a_p" in row}
        for p in self.sampled_primes(index, sorted(by_p)):
            true = self._memo(("trace", a, b, p), lambda: legendre_trace(a, b, p))
            if by_p[p] != true:
                problems.append(f"a_{p} = {by_p[p]}, Legendre recount gives {true}")
        if problems:
            raise CheckFailed("; ".join(problems[:3]))
        if emitted != expected:
            extra = sorted(set(emitted) - expected_set)
            missing = sorted(expected_set - set(emitted))
            wrong = 4 * a**3 - 27 * b**2
            known = DISCRIMINANT if emitted == [p for p in primes_upto(limit) if p != 2 and wrong % p] else None
            raise CheckFailed(f"prime set wrong: extra {extra[:5]}, missing {missing[:5]}", known)
        self.traces.setdefault((a, b), {}).update(by_p)

    def _lseries(self, index: int, params: dict, outcome: Outcome) -> None:
        a, b, limit, exact = params["a"], params["b"], params["limit"], params.get("exact", False)
        s = float(params["s"])
        _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}")
        rows = _rows(outcome.stdout)
        _require(len(rows) == 1, f"expected one record, got {len(rows)}")
        rec = rows[0]
        primes = self._memo(("good", a, b, limit), lambda: good_primes(a, b, limit))
        disc = -16 * (4 * a**3 + 27 * b**2)
        skipped = [q for q in primes_upto(limit) if disc % q == 0]
        _require((rec.get("a"), rec.get("b"), rec.get("prime_bound")) == (a, b, limit), f"header {rec}")
        _require(rec.get("factor_count") == len(primes), f"factor_count {rec.get('factor_count')} != {len(primes)}")
        _require(rec.get("skipped_primes") == skipped, f"skipped_primes {rec.get('skipped_primes')} != {skipped}")
        log_value = log_euler(self._trace_table(a, b, primes), primes, s)
        if exact:
            _require(rec.get("s") == int(s), f"s {rec.get('s')}")
            value = _parse_fraction(rec["value"])
            _require(_close(float(value), math.exp(log_value)), f"exact value {float(value)} != {math.exp(log_value)}")
        else:
            _require(_close(rec.get("log_value", math.nan), log_value), f"log_value {rec.get('log_value')} != {log_value}")
            _require(_close(rec.get("value", math.nan), math.exp(log_value)), f"value {rec.get('value')}")

    def _ratio(self, index: int, params: dict, outcome: Outcome) -> None:
        top, bottom = (params["a1"], params["b1"]), (params["a2"], params["b2"])
        s, limit = float(params["s"]), params["limit"]
        _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}")
        rows = _rows(outcome.stdout)
        _require(bool(rows), "no output")
        *factors, summary = rows
        bottom_good = set(good_primes(*bottom, limit))
        primes = [p for p in good_primes(*top, limit) if p in bottom_good]
        _require([row.get("p") for row in factors] == primes, "ratio prime set wrong")
        t_top = self._trace_table(*top, primes)
        t_bottom = self._trace_table(*bottom, primes)
        product = 1.0
        for row in factors:
            p = row["p"]
            if t_top[p] == t_bottom[p]:
                want = 1.0
                _require(row["factor"] == 1.0, f"factor at {p} is {row['factor']}, traces agree")
            else:
                want = euler_factor(t_top[p], p, s) / euler_factor(t_bottom[p], p, s)
                _require(_close(row["factor"], want), f"factor at {p}: {row['factor']} != {want}")
            product *= want
        _require(summary.get("prime_bound") == limit, f"summary {summary}")
        _require(_close(summary.get("ratio", math.nan), product), f"ratio {summary.get('ratio')} != {product}")

    def _lemma_verify(self, index: int, params: dict, outcome: Outcome) -> None:
        lemma, limit, d_max = params["lemma"], params["limit"], params["d_max"]
        _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}")
        primes = [p for p in primes_upto(limit) if p != 2]

        def units(p: int) -> int:
            return sum(1 for d in range(1, d_max + 1) if d % p)

        checked = {
            1: sum(min(params["samples"], p - 1) for p in primes if p % 4 == 3),
            2: sum(1 for p in primes if p % 4 == 1),
            3: sum(2 * units(p) for p in primes if p % 4 == 1),
            4: sum(p - 1 for p in primes if p % 4 == 1),
            5: len(primes),
            6: sum(1 for p in primes if p % 8 == 5),
            7: sum(units(p) for p in primes if p % 8 == 5),
        }[lemma]
        want = [{"lemma": lemma, "limit": limit, "checked": checked, "mismatches": 0}]
        _require(_rows(outcome.stdout) == want, f"expected {want}")

    def _find_points(self, index: int, params: dict, outcome: Outcome) -> None:
        d, bound = params["d"], params["bound"]
        _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}")
        points = []
        for row in _rows(outcome.stdout):
            x, y = _parse_fraction(row["x"]), _parse_fraction(row["y"])
            _require(row.get("d") == d, f"row for d = {row.get('d')}")
            _require(y * y == x**3 - d * d * x, f"({x}, {y}) is not on y^2 = x^3 - {d * d}x")
            points.append((x, y))
        key = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in points]
        _require(key == sorted(set(key)), "points not sorted or repeated")

        def expected() -> set:
            out = set()
            for (e, m), beta in qualifying_betas(d, bound).items():
                for x in (Fraction(d * (m + e), m - e), Fraction(-d * (m - e), m + e)):
                    out |= {(x, beta * x), (x, -beta * x)}
            return out

        want = self._memo(("points", d, bound), expected)
        _require(set(points) == want, f"{len(points)} points, expected {len(want)}")
        if isqrt(d) ** 2 == d:
            _require(not points, f"square d = {d} is not congruent, yet points were found")

    def _lemma11(self, index: int, params: dict, outcome: Outcome) -> None:
        d, bound = params["d"], params["bound"]
        applicable = is_prime(d) and d % 8 == 3
        *hits, summary = _rows(outcome.stdout) or [{}]
        betas = self._memo(("betas", d, bound), lambda: qualifying_betas(d, bound))
        want_hits = {(beta.numerator, beta.denominator, m, e) for (e, m), beta in betas.items()}
        got_hits = [(h.get("k"), h.get("j"), h.get("m"), h.get("e")) for h in hits]
        _require(sorted(got_hits) == sorted(want_hits) and len(set(got_hits)) == len(got_hits), "hit set wrong")
        want = {"d": d, "bound": bound, "applicable": applicable, "hits": len(want_hits), "violation": applicable and bool(want_hits)}
        _require(summary == want, f"summary {summary}, expected {want}")
        _require(outcome.exit_code == (1 if want["violation"] else 0), f"exit code {outcome.exit_code}")
        if applicable:
            _require(not hits, f"lemma 11 violated at d = {d}")
        if d == 6:
            _require(bool(hits), "no hits for the congruent control d = 6")

    def _collisions(self, index: int, params: dict, outcome: Outcome) -> None:
        bound = params["bound"]
        _require(outcome.exit_code == 0, f"exit code {outcome.exit_code}")
        want = self._memo(("collisions", bound), lambda: collision_groups(bound))
        got = _rows(outcome.stdout)
        _require(len(got) == len(want), f"{len(got)} groups, expected {len(want)}")
        for g, w in zip(got, want):
            _require(g == w, f"group {g} != {w}")


def _crash_line(outcome: Outcome) -> str:
    """Last stderr line when the child died with a traceback or a signal."""
    if outcome.exit_code < 0:
        return f"killed by signal {-outcome.exit_code}"
    if b"Traceback (most recent call last)" not in outcome.stderr:
        return ""
    lines = outcome.stderr.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else "traceback"
