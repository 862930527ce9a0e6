"""Command-line front end.

One subcommand per library surface; records stream to stdout as JSON
Lines (default) or CSV.  Exit codes: 0 success, 1 a sweep found a
claim/oracle mismatch (the finding is the output, not a crash), 2 bad
usage: each argument's range is checked once, by its argparse type, and
rules needing the curve or two arguments exit 2 before any work too, as
does a --cache path that cannot be read or created.
"""

# A call imports only what its subcommand runs: the module level holds
# what the parser and every handler need, and each handler imports the
# library functions it calls (the module docstring is the --help text).

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from .errors import BadReductionError, CacheInvalidError, SingularCurveError
from .modmath import require_odd_prime


def _fraction_str(q) -> str:
    # str(Decimal(n)) is exact and, unlike str(n), not capped by the
    # int-to-str digit limit (4300 by default) that exact products outgrow.
    from decimal import Decimal

    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "csv":
        import csv

        fieldnames = list(dict.fromkeys(key for record in records for key in record))
        if not fieldnames:
            return
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for record in records:
            writer.writerow({k: _csv_cell(v) for k, v in record.items()})
    else:
        for record in records:
            print(json.dumps(record))


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return json.dumps(value)
    return value


def _fail(message: str) -> int:
    print(f"curvecount: error: {message}", file=sys.stderr)
    return 2


# A sieve to --limit allocates about limit bytes plus the prime list,
# collision_search sorts about bound/2 values of V (24 MB at 10^6) before
# it searches, and find-points and lemma11 mark 2 bound + 1 bytes, so
# larger values are refused before anything is computed.
LIMIT_CEILING = 10**8
BOUND_CEILING = 10**6
# An exact product's numerator prod p^(2s-1) has at most
# (2s - 1) * limit / ln 10 digits, since theta(x) = sum of ln p < x.
EXACT_DIGITS_CEILING = 10**6
# --s is parsed as a float, which holds every integer below 2^53 but not
# every one above it, so --exact refuses an s that may have been rounded.
EXACT_S_CEILING = 2**53


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi], or >= lo when hi is None."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            rule = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _odd_prime(text: str) -> int:
    try:
        value = int(text)
        require_odd_prime(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


# ---------------------------------------------------------------- lemma-verify
#
# One check per lemma: _lemmaN(d_max, samples, seed) imports what the
# check needs and returns check(p) -> (items checked, mismatch details),
# so a sweep imports once and then calls check once per prime.  Per-prime
# state (the lemma 1 sample of a values) is seeded from (seed, p) alone,
# never from chunk position, so any partition of the primes yields the
# same findings.


def _lemma1(d_max: int, samples: int, seed: int):
    import random

    from .point_count import Curve, count_affine_points

    def check(p):
        rng = random.Random((seed << 32) | p)
        values = sorted(rng.sample(range(1, p), min(samples, p - 1)))
        bad = []
        for a in values:
            n_p = count_affine_points(Curve(a, 0), p)
            if n_p != p:
                bad.append({"a": a, "n_p": n_p, "expected": p})
        return len(values), bad

    return check


def _lemma2(d_max: int, samples: int, seed: int):
    from .residue_lemmas import count_lemma2

    def check(p):
        count = count_lemma2(p)
        return 1, [] if count == (p - 5) // 4 else [{"count": count, "expected": (p - 5) // 4}]

    return check


def _lemma3(d_max: int, samples: int, seed: int):
    from .point_count import MINUS, PLUS, TwistSpec, count_affine_points, np_lemma3

    def check(p):
        checked, bad = 0, []
        for d in range(1, d_max + 1):
            if d % p == 0:
                continue
            for sign in (MINUS, PLUS):
                spec = TwistSpec(d, sign)
                claimed = np_lemma3(spec, p).n_p
                brute = count_affine_points(spec.curve(), p)
                checked += 1
                if claimed != brute:
                    bad.append({"d": d, "sign": sign, "claimed": claimed, "brute": brute})
        return checked, bad

    return check


def _lemma4(d_max: int, samples: int, seed: int):
    from .residue_lemmas import lemma4_check

    def check(p):
        bad = []
        for y in range(1, p):
            lhs, rhs = lemma4_check(p, y)
            if lhs != rhs:
                bad.append({"y": y, "lhs": lhs, "rhs": rhs})
        return p - 1, bad

    return check


def _lemma5(d_max: int, samples: int, seed: int):
    from .residue_lemmas import _lemma5_hit  # the sweep's primes come from the sieve

    return lambda p: (1, [{}] if _lemma5_hit(p) else [])


def _lemma6(d_max: int, samples: int, seed: int):
    from .residue_lemmas import lemma6_check

    def check(p):
        n1, n2, ok = lemma6_check(p)
        return 1, [] if ok else [{"n1": n1, "n2": n2, "expected_sum": (p - 5) // 4}]

    return check


def _lemma7(d_max: int, samples: int, seed: int):
    from .point_count import lemma7_check

    def check(p):
        checked, bad = 0, []
        for d in range(1, d_max + 1):
            if d % p == 0:
                continue
            ap_minus, ap_plus, total = lemma7_check(d, p)
            checked += 1
            if total != 0:
                bad.append({"d": d, "ap_minus": ap_minus, "ap_plus": ap_plus, "sum": total})
        return checked, bad

    return check


# lemma -> ((modulus, residue) selecting the odd primes it covers, check
# factory, cost(p, d_max, samples)).  The cost estimates the check's
# in-process work at p for sweep.map_chunks, in elements of a brute-force
# count, and was fitted to per-prime timings of the check at
# d_max = samples = 20.  Lemma 1 counts `samples` curves and lemma 3
# counts 2 d_max curves by brute force; lemmas 2, 4, 6 and 7 build residue
# tables, and lemma 7 then reads its census 2 d_max times.  Lemma 5 takes
# a few modular powers per prime, about 3 us with the chunk's bookkeeping
# (limit 60015).
LEMMAS = {
    1: ((4, 3), _lemma1, lambda p, d_max, samples: min(samples, p - 1) * p),
    2: ((4, 1), _lemma2, lambda p, d_max, samples: 0.6 * p),
    3: ((4, 1), _lemma3, lambda p, d_max, samples: 2.4 * d_max * p),
    4: ((4, 1), _lemma4, lambda p, d_max, samples: 8 * p),
    5: ((2, 1), _lemma5, lambda p, d_max, samples: 20),
    6: ((8, 5), _lemma6, lambda p, d_max, samples: 0.8 * p + 300),
    7: ((8, 5), _lemma7, lambda p, d_max, samples: 0.9 * p + 30 * d_max),
}


def _verify_chunk(lemma: int, check, primes: list[int]):
    """(checked, mismatch records) for one prime chunk of one lemma sweep."""
    checked, mismatches = 0, []
    for p in primes:
        count, bad = check(p)
        checked += count
        mismatches.extend({"lemma": lemma, "p": p, **detail} for detail in bad)
    return checked, mismatches


def _run_verify(args) -> int:
    from .modmath import sieve_primes
    from .sweep import map_chunks

    (modulus, residue), make_check, cost = LEMMAS[args.lemma]
    primes = [p for p in sieve_primes(args.limit) if p % modulus == residue]
    # Built before the fan-out, so forked workers inherit its imports.
    chunk = partial(_verify_chunk, args.lemma, make_check(args.d_max, args.samples, args.seed))
    results = map_chunks(chunk, primes, args.workers, lambda p: cost(p, args.d_max, args.samples))
    checked = sum(r[0] for r in results)
    mismatches = [record for r in results for record in r[1]]
    summary = {"lemma": args.lemma, "limit": args.limit, "checked": checked, "mismatches": len(mismatches)}
    _emit(mismatches + [summary], args.format)
    return 1 if mismatches else 0


# ------------------------------------------------------------------- handlers


def _run_profile(args) -> int:
    from .modmath import prime_profile

    prof = prime_profile(args.p)
    record = {
        "p": prof.p,
        "minus_one": prof.class_minus_one,
        "two": prof.class_two,
        "epsilon": prof.epsilon,
        "epsilon_class": prof.class_epsilon,
    }
    _emit([record], args.format)
    return 0


def _run_count(args) -> int:
    from .point_count import Curve, trace_ap

    record = trace_ap(Curve(args.a, args.b), args.p, method=args.method)
    shown = record.n_p + 1 if args.plus_one else record.n_p
    _emit([{"p": record.p, "n_p": shown, "a_p": record.a_p}], args.format)
    return 0


def _run_ap_table(args) -> int:
    from .cache import read_cache, resolve_cache_path, write_cache
    from .point_count import Curve, good_odd_primes, record_cost, records_for_primes
    from .sweep import map_chunks

    curve = Curve(args.a, args.b)
    primes = good_odd_primes(curve, args.limit)
    # --cross-validate recounts every prime, so it neither reads nor writes the cache.
    cache_path = resolve_cache_path(args.cache) if args.cache and not args.cross_validate else None
    cached, pmax_seen, extends = [], 0, True
    if cache_path:
        try:
            pmax_seen, cached = read_cache(cache_path, curve)
            extends = args.limit > pmax_seen
        except CacheInvalidError as exc:
            print(f"curvecount: rebuilding cache {cache_path}: {exc}", file=sys.stderr)
        except FileNotFoundError:  # an absent cache is created, but only in a directory that exists
            if not os.path.isdir(os.path.dirname(cache_path) or "."):
                return _fail(f"cache {cache_path}: no such directory")
        except OSError as exc:
            return _fail(f"cache {cache_path}: {exc.strerror or exc}")
    chunk = partial(records_for_primes, curve, cross_validate=args.cross_validate)
    cost = partial(record_cost, curve, args.cross_validate)
    parts = map_chunks(chunk, [p for p in primes if p > pmax_seen], args.workers, cost)
    fresh = [r for part in parts for r in part]
    records = [r for r in cached if r.p <= args.limit] + fresh
    if cache_path and extends:  # a valid cache is rewritten only past its pmax
        try:
            write_cache(cache_path, curve, args.limit, cached + fresh)
        except OSError as exc:
            return _fail(f"cache {cache_path}: {exc.strerror or exc}")
    shift = 1 if args.plus_one else 0
    rows = []
    for r in records:
        row = {"p": r.p, "n_p": r.n_p + shift, "a_p": r.a_p, "method": r.method}
        if args.cross_validate:
            row["brute_np"] = None if r.brute_np is None else r.brute_np + shift
        rows.append(row)
    _emit(rows, args.format)
    return 1 if any(r.mismatch for r in records) else 0


def _run_lseries(args) -> int:
    from .lseries import partial_L, partial_L_exact
    from .point_count import Curve

    curve = Curve(args.a, args.b)
    if args.exact and args.s != int(args.s):
        return _fail(f"--exact needs an integer s, got {args.s}")
    digits = (2 * args.s - 1) * args.limit / math.log(10)
    if args.exact and digits > EXACT_DIGITS_CEILING:
        return _fail(f"--exact --s {args.s} --limit {args.limit} needs about {digits:.3g} digits, "
                     f"above the ceiling of {EXACT_DIGITS_CEILING}")
    if args.exact and args.s >= EXACT_S_CEILING:
        return _fail(f"--exact needs s below 2^53, got {args.s}")
    record = {"a": args.a, "b": args.b, "s": args.s, "prime_bound": args.limit}
    if args.exact:
        ev = partial_L_exact(curve, int(args.s), args.limit)
        record["s"] = ev.s
        record["value"] = _fraction_str(ev.value)
    else:
        ev = partial_L(curve, args.s, args.limit)
        record["log_value"] = ev.log_value
        record["value"] = ev.value
    record["factor_count"] = ev.factor_count
    record["skipped_primes"] = list(ev.skipped_primes)
    _emit([record], args.format)
    return 0


def _run_ratio(args) -> int:
    from .lseries import ratio_partial
    from .point_count import Curve

    ev = ratio_partial(Curve(args.a1, args.b1), Curve(args.a2, args.b2), args.s, args.limit)
    rows = [{"p": p, "factor": factor} for p, factor in zip(ev.primes, ev.factors)]
    rows.append({"s": ev.s, "prime_bound": ev.prime_bound, "ratio": ev.ratio})
    _emit(rows, args.format)
    return 0


def _run_find_points(args) -> int:
    from .rational_points import find_points_for_d

    points = find_points_for_d(args.d, args.bound)
    _emit(
        [{"d": args.d, "x": _fraction_str(p.x), "y": _fraction_str(p.y)} for p in points],
        args.format,
    )
    return 0


def _run_lemma11(args) -> int:
    from .rational_points import lemma11_applicable, lemma11_exhaustive

    applicable = lemma11_applicable(args.d)
    hits = lemma11_exhaustive(args.d, args.bound)
    rows = [{"k": q.k, "j": q.j, "m": q.m, "e": q.e} for q in hits]
    rows.append(
        {
            "d": args.d,
            "bound": args.bound,
            "applicable": applicable,
            "hits": len(hits),
            "violation": applicable and bool(hits),
        }
    )
    _emit(rows, args.format)
    return 1 if applicable and hits else 0


def _run_collisions(args) -> int:
    from .rational_points import collision_search

    groups = collision_search(args.bound, workers=args.workers, coprime_only=not args.allow_non_coprime)
    _emit(
        [
            {"v": g.v, "members": [list(m) for m in g.members], "d_values": list(g.d_values), "shared_x": g.shared_x}
            for g in groups
        ],
        args.format,
    )
    return 0


def _run_lemma8(args) -> int:
    from .residue_lemmas import lemma8_fraction

    ones, threes, fraction = lemma8_fraction(args.limit)
    _emit(
        [{"limit": args.limit, "ones": ones, "threes": threes, "fraction": _fraction_str(fraction)}],
        args.format,
    )
    return 0


# --------------------------------------------------------------------- parser


def _cpus_available() -> int:
    """The CPUs this process may run on, the default for --workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvecount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    curve = argparse.ArgumentParser(add_help=False, parents=[common])
    curve.add_argument("--a", type=int, required=True)
    curve.add_argument("--b", type=int, required=True)
    limit = _int_in(0, LIMIT_CEILING)
    sweep_limit = _int_in(3, LIMIT_CEILING)  # lemma-verify and lemma8 need an odd prime
    cpus = _cpus_available()

    p = sub.add_parser("profile", parents=[common], help="residue classes of -1, 2 and eps at p")
    p.add_argument("p", type=_odd_prime)
    p.set_defaults(handler=_run_profile)

    p = sub.add_parser("count", parents=[curve], help="n_p and a_p at one good prime")
    p.add_argument("--p", type=_odd_prime, required=True)
    p.add_argument("--method", choices=("auto", "brute"), default="auto")
    p.add_argument("--plus-one", action="store_true", help="display the projective count n_p + 1")
    p.set_defaults(handler=_run_count)

    p = sub.add_parser("ap-table", parents=[curve], help="a_p records for all good odd primes <= limit")
    p.add_argument("--limit", type=limit, required=True)
    p.add_argument("--workers", type=_int_in(1), default=cpus)
    p.add_argument("--cache", help="cache file; relative paths resolve under $CURVECOUNT_CACHE_DIR; "
                   "ignored under --cross-validate")
    p.add_argument("--cross-validate", action="store_true", help="recompute and check every record against brute force")
    p.add_argument("--plus-one", action="store_true")
    p.set_defaults(handler=_run_ap_table)

    p = sub.add_parser("lemma-verify", parents=[common], help="sweep one closed-form claim against brute force")
    p.add_argument("--lemma", type=int, choices=sorted(LEMMAS), required=True)
    p.add_argument("--limit", type=sweep_limit, required=True)
    p.add_argument("--d-max", type=_int_in(1), default=20)
    p.add_argument("--samples", type=_int_in(1), default=20, help="a values sampled per prime (lemma 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_int_in(1), default=cpus)
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("lseries", parents=[curve], help="truncated Euler product at s")
    p.add_argument("--s", type=_positive_float, required=True)
    p.add_argument("--limit", type=limit, required=True)
    p.add_argument("--exact", action="store_true", help="exact rational product (integer s only)")
    p.set_defaults(handler=_run_lseries)

    p = sub.add_parser("ratio", parents=[common], help="factorwise quotient of two truncated products")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--s", type=_positive_float, required=True)
    p.add_argument("--limit", type=limit, required=True)
    p.set_defaults(handler=_run_ratio)

    p = sub.add_parser("find-points", parents=[common], help="rational points on y^2 = x^3 - d^2 x")
    p.add_argument("--d", type=_int_in(1), required=True)
    p.add_argument("--bound", type=_int_in(2, BOUND_CEILING), required=True)
    p.set_defaults(handler=_run_find_points)

    p = sub.add_parser("lemma11", parents=[common], help="exhaustive no-solution check for prime d = 3 (mod 8)")
    p.add_argument("--d", type=_int_in(1), required=True)
    p.add_argument("--bound", type=_int_in(0, BOUND_CEILING), required=True)
    p.set_defaults(handler=_run_lemma11)

    p = sub.add_parser("collisions", parents=[common], help="pairs sharing V = em(m+e)^2")
    p.add_argument("--bound", type=_int_in(2, BOUND_CEILING), required=True)
    p.add_argument("--workers", type=_int_in(1), default=cpus)
    p.add_argument("--allow-non-coprime", action="store_true")
    p.set_defaults(handler=_run_collisions)

    p = sub.add_parser("lemma8", parents=[common], help="split of odd primes by p mod 4")
    p.add_argument("--limit", type=sweep_limit, required=True)
    p.set_defaults(handler=_run_lemma8)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (SingularCurveError, BadReductionError) as exc:  # raised by the library before any work
        return _fail(str(exc))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
