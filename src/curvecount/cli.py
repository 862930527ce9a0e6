"""Command-line front end.

One subcommand per library surface; records stream to stdout as JSON
Lines (default) or CSV.  Exit codes: 0 success, 1 a sweep found a
claim/oracle mismatch (the finding is the output, not a crash), 2 bad
usage.  All option validation happens before any computation starts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial

from .cache import read_cache, resolve_cache_path, write_cache
from .errors import CacheInvalidError
from .lseries import partial_L, partial_L_exact, prime_split, ratio_partial
from .modmath import is_prime, prime_profile, sieve_primes
from .point_count import (
    MINUS,
    PLUS,
    Curve,
    TwistSpec,
    count_affine_points,
    good_odd_primes,
    lemma7_check,
    np_lemma3,
    records_for_primes,
    trace_ap,
)
from .rational_points import collision_search, find_points_for_d, lemma11_applicable, lemma11_exhaustive
from .residue_lemmas import count_lemma2, lemma4_check, lemma5_hit, lemma6_check, lemma8_fraction
from .sweep import map_chunks


def _fraction_str(q: Fraction) -> str:
    # str(Decimal(n)) is exact and, unlike str(n), not capped by the
    # int-to-str digit limit (4300 by default) that exact products outgrow.
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _emit(records: list[dict], fmt: str) -> None:
    if fmt == "csv":
        fieldnames: list[str] = []
        for record in records:
            for key in record:
                if key not in fieldnames:
                    fieldnames.append(key)
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


def _workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------- lemma-verify
#
# One check per lemma, called once per prime: (items checked, mismatch
# details).  Per-prime state (the lemma 1 sample of a values) is seeded
# from (seed, p) alone, never from chunk position, so any partition of
# the primes yields the same findings.


def _check_lemma1(p: int, d_max: int, samples: int, seed: int):
    rng = random.Random((seed << 32) | p)
    values = sorted(rng.sample(range(1, p), min(samples, p - 1)))
    bad = []
    for a in values:
        n_p = count_affine_points(Curve(a, 0), p)
        if n_p != p:
            bad.append({"a": a, "n_p": n_p, "expected": p})
    return len(values), bad


def _check_lemma2(p: int, d_max: int, samples: int, seed: int):
    count = count_lemma2(p)
    return 1, [] if count == (p - 5) // 4 else [{"count": count, "expected": (p - 5) // 4}]


def _check_lemma3(p: int, d_max: int, samples: int, seed: int):
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


def _check_lemma4(p: int, d_max: int, samples: int, seed: int):
    bad = []
    for y in range(1, p):
        lhs, rhs = lemma4_check(p, y)
        if lhs != rhs:
            bad.append({"y": y, "lhs": lhs, "rhs": rhs})
    return p - 1, bad


def _check_lemma5(p: int, d_max: int, samples: int, seed: int):
    return 1, [{}] if lemma5_hit(p) else []


def _check_lemma6(p: int, d_max: int, samples: int, seed: int):
    n1, n2, ok = lemma6_check(p)
    return 1, [] if ok else [{"n1": n1, "n2": n2, "expected_sum": (p - 5) // 4}]


def _check_lemma7(p: int, d_max: int, samples: int, seed: int):
    checked, bad = 0, []
    for d in range(1, d_max + 1):
        if d % p == 0:
            continue
        ap_minus, ap_plus, total = lemma7_check(d, p)
        checked += 1
        if total != 0:
            bad.append({"d": d, "ap_minus": ap_minus, "ap_plus": ap_plus, "sum": total})
    return checked, bad


# lemma -> ((modulus, residue) selecting the odd primes it covers, check)
LEMMAS = {
    1: ((4, 3), _check_lemma1),
    2: ((4, 1), _check_lemma2),
    3: ((4, 1), _check_lemma3),
    4: ((4, 1), _check_lemma4),
    5: ((2, 1), _check_lemma5),
    6: ((8, 5), _check_lemma6),
    7: ((8, 5), _check_lemma7),
}


def _verify_chunk(lemma: int, d_max: int, samples: int, seed: int, primes: list[int]):
    """(checked, mismatch records) for one prime chunk of one lemma sweep."""
    check = LEMMAS[lemma][1]
    checked, mismatches = 0, []
    for p in primes:
        count, bad = check(p, d_max, samples, seed)
        checked += count
        mismatches.extend({"lemma": lemma, "p": p, **detail} for detail in bad)
    return checked, mismatches


def _run_verify(args) -> int:
    if args.lemma not in LEMMAS:
        return _fail(f"--lemma must be one of {tuple(LEMMAS)}, got {args.lemma}")
    if args.limit < 3:
        return _fail(f"--limit must be >= 3, got {args.limit}")
    if args.d_max < 1 or args.samples < 1:
        return _fail("--d-max and --samples must be >= 1")
    (modulus, residue), _ = LEMMAS[args.lemma]
    primes = [p for p in sieve_primes(args.limit) if p % modulus == residue]
    chunk = partial(_verify_chunk, args.lemma, args.d_max, args.samples, args.seed)
    results = map_chunks(chunk, primes, args.workers)
    checked = sum(r[0] for r in results)
    mismatches = [record for r in results for record in r[1]]
    summary = {"lemma": args.lemma, "limit": args.limit, "checked": checked, "mismatches": len(mismatches)}
    _emit(mismatches + [summary], args.format)
    return 1 if mismatches else 0


# ------------------------------------------------------------------- handlers


def _run_profile(args) -> int:
    if not is_prime(args.p) or args.p == 2:
        return _fail(f"p must be an odd prime, got {args.p}")
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
    if not is_prime(args.p) or args.p == 2:
        return _fail(f"p must be an odd prime, got {args.p}")
    curve = Curve(args.a, args.b)
    if curve.discriminant() % args.p == 0:
        return _fail(f"p = {args.p} divides the discriminant of {curve}")
    record = trace_ap(curve, args.p, method=args.method)
    shown = record.n_p + 1 if args.plus_one else record.n_p
    _emit([{"p": record.p, "n_p": shown, "a_p": record.a_p}], args.format)
    return 0


def _run_ap_table(args) -> int:
    curve = Curve(args.a, args.b)
    if curve.discriminant() == 0:
        return _fail(f"curve {curve} is singular")
    if args.limit < 0:
        return _fail(f"--limit must be >= 0, got {args.limit}")
    primes = good_odd_primes(curve, args.limit)
    cache_path = resolve_cache_path(args.cache) if args.cache else None
    cached, pmax_seen = [], 0
    if cache_path and not args.cross_validate:
        try:
            header, cached = read_cache(cache_path, curve)
            pmax_seen = header.pmax
        except (FileNotFoundError, CacheInvalidError):
            cached, pmax_seen = [], 0
    chunk = partial(records_for_primes, curve, cross_validate=args.cross_validate)
    parts = map_chunks(chunk, [p for p in primes if p > pmax_seen], args.workers)
    fresh = [r for part in parts for r in part]
    records = [r for r in cached if r.p <= args.limit] + fresh
    if cache_path:
        write_cache(cache_path, curve, max(args.limit, pmax_seen), cached + fresh)
    rows = []
    for r in records:
        row = {"p": r.p, "n_p": r.n_p + 1 if args.plus_one else r.n_p, "a_p": r.a_p, "method": r.method}
        if args.cross_validate:
            row["brute_np"] = r.brute_np
        rows.append(row)
    _emit(rows, args.format)
    return 1 if any(r.mismatch for r in records) else 0


def _run_lseries(args) -> int:
    curve = Curve(args.a, args.b)
    if curve.discriminant() == 0:
        return _fail(f"curve {curve} is singular")
    if not args.s > 0:
        return _fail(f"--s must be positive, got {args.s}")
    if args.limit < 0:
        return _fail(f"--limit must be >= 0, got {args.limit}")
    if args.exact and args.s != int(args.s):
        return _fail(f"--exact needs an integer s, got {args.s}")
    record = {"a": args.a, "b": args.b, "s": args.s, "prime_bound": args.limit}
    if args.exact:
        good, skipped = prime_split(curve, args.limit)
        record["s"] = int(args.s)
        record["value"] = _fraction_str(partial_L_exact(curve, int(args.s), args.limit))
        record["factor_count"] = len(good)
        record["skipped_primes"] = list(skipped)
    else:
        ev = partial_L(curve, args.s, args.limit)
        record["log_value"] = ev.log_value
        record["value"] = ev.value
        record["factor_count"] = ev.factor_count
        record["skipped_primes"] = list(ev.skipped_primes)
    _emit([record], args.format)
    return 0


def _run_ratio(args) -> int:
    top, bottom = Curve(args.a1, args.b1), Curve(args.a2, args.b2)
    for curve in (top, bottom):
        if curve.discriminant() == 0:
            return _fail(f"curve {curve} is singular")
    if not args.s > 0:
        return _fail(f"--s must be positive, got {args.s}")
    if args.limit < 0:
        return _fail(f"--limit must be >= 0, got {args.limit}")
    ev = ratio_partial(top, bottom, args.s, args.limit)
    rows = [{"p": p, "factor": factor} for p, factor in zip(ev.primes, ev.factors)]
    rows.append({"s": ev.s, "prime_bound": ev.prime_bound, "ratio": ev.ratio})
    _emit(rows, args.format)
    return 0


def _run_find_points(args) -> int:
    if args.d < 1:
        return _fail(f"--d must be >= 1, got {args.d}")
    if args.bound < 2:
        return _fail(f"--bound must be >= 2, got {args.bound}")
    points = find_points_for_d(args.d, args.bound)
    _emit(
        [{"d": args.d, "x": _fraction_str(p.x), "y": _fraction_str(p.y)} for p in points],
        args.format,
    )
    return 0


def _run_lemma11(args) -> int:
    if args.d < 1:
        return _fail(f"--d must be >= 1, got {args.d}")
    if args.bound < 0:
        return _fail(f"--bound must be >= 0, got {args.bound}")
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
    if args.bound < 2:
        return _fail(f"--bound must be >= 2, got {args.bound}")
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
    if args.limit < 3:
        return _fail(f"--limit must be >= 3, got {args.limit}")
    ones, threes, fraction = lemma8_fraction(args.limit)
    _emit(
        [{"limit": args.limit, "ones": ones, "threes": threes, "fraction": _fraction_str(fraction)}],
        args.format,
    )
    return 0


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvecount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    p = sub.add_parser("profile", parents=[common], help="residue classes of -1, 2 and eps at p")
    p.add_argument("p", type=int)
    p.set_defaults(handler=_run_profile)

    p = sub.add_parser("count", parents=[common], help="n_p and a_p at one good prime")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=("auto", "brute"), default="auto")
    p.add_argument("--plus-one", action="store_true", help="display the projective count n_p + 1")
    p.set_defaults(handler=_run_count)

    p = sub.add_parser("ap-table", parents=[common], help="a_p records for all good odd primes <= limit")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--workers", type=_workers, default=os.cpu_count() or 1)
    p.add_argument("--cache", help="cache file; relative paths resolve under $CURVECOUNT_CACHE_DIR")
    p.add_argument("--cross-validate", action="store_true", help="recompute and check every record against brute force")
    p.add_argument("--plus-one", action="store_true")
    p.set_defaults(handler=_run_ap_table)

    p = sub.add_parser("lemma-verify", parents=[common], help="sweep one closed-form claim against brute force")
    p.add_argument("--lemma", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--d-max", type=int, default=20)
    p.add_argument("--samples", type=int, default=20, help="a values sampled per prime (lemma 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_workers, default=os.cpu_count() or 1)
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("lseries", parents=[common], help="truncated Euler product at s")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="exact rational product (integer s only)")
    p.set_defaults(handler=_run_lseries)

    p = sub.add_parser("ratio", parents=[common], help="factorwise quotient of two truncated products")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_run_ratio)

    p = sub.add_parser("find-points", parents=[common], help="rational points on y^2 = x^3 - d^2 x")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_run_find_points)

    p = sub.add_parser("lemma11", parents=[common], help="exhaustive no-solution check for prime d = 3 (mod 8)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_run_lemma11)

    p = sub.add_parser("collisions", parents=[common], help="pairs sharing V = em(m+e)^2")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--workers", type=_workers, default=os.cpu_count() or 1)
    p.add_argument("--allow-non-coprime", action="store_true")
    p.set_defaults(handler=_run_collisions)

    p = sub.add_parser("lemma8", parents=[common], help="split of odd primes by p mod 4")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_run_lemma8)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.handler(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
