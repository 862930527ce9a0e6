"""Command-line front end.

One subcommand per library surface; records stream to stdout as JSON
Lines (default) or CSV.  Exit codes: 0 success, 1 a sweep found a
claim/oracle mismatch (the finding is the output, not a crash), 2 bad
usage: each argument's range is checked once, by its argparse type, and
rules needing the curve or two arguments exit 2 before any work too, as
does a --cache path that cannot be read or created; 141 (128 + SIGPIPE)
when stdout's reader closed it early, with nothing on stderr.
"""

# A call imports only what its subcommand runs: the module level holds
# what the parser and every handler need, and each handler imports the
# library functions it calls (the module docstring is the --help text).
# Each handler returns its rows and exit status and writes nothing to
# stdout: main is its one writer, through one _emit call.  The rows of
# ap-table and ratio are generators over finished results, so a jsonl
# run holds one row at a time.

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


def _emit(records, fmt: str) -> None:
    if fmt == "csv":
        import csv

        records = list(records)  # the header is the union of every row's keys
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


def _fail(message: str) -> tuple[list, int]:
    print(f"curvecount: error: {message}", file=sys.stderr)
    return [], 2


def _fail_brute_sweep(limit: int) -> tuple[list, int]:
    return _fail(f"a sweep that brute-counts every prime needs --limit <= {BRUTE_LIMIT_CEILING}, got {limit}")


# A sieve to --limit allocates about limit bytes plus the prime list, and
# ap-table holds every record; csv also holds every row, for its header.
# `ap-table --a -1 --b 0` peaked at 29 MB RSS at limit 10^6 and 137 MB at
# 10^7 in jsonl (about 0.2 KB a prime, so 1.2 GB at 10^8), and 46 and 280
# MB in csv (0.4 KB a prime, 2.4 GB at 10^8).  find-points and lemma11
# mark 2 bound + 1 bytes.  Larger values are refused before any work.
LIMIT_CEILING = 10**8
BOUND_CEILING = 10**6
# A collision search checks the tenth or so of the pairs e < m <= --bound
# that pass its least-k test, so its time still grows as bound^2:
# `collisions --bound 10000` took 5.2 s at --workers 1 and 3.4 s at 2,
# peaking at 17 MB RSS (medians of 3 runs, Python 3.11.7, 2 vCPUs), so
# 10^5 would take about nine minutes and 10^6 about 14 hours.  A larger
# bound is refused.
COLLISION_BOUND_CEILING = 10**4
# Lemmas 3 and 7 check the closed form for every d <= --d-max at every
# prime, so their time grows linearly in it: at --d-max 10^5 --limit 2000
# lemma 3 took 85-89 s (29.3 M checks) and lemma 7 35-38 s (7.8 M),
# at --workers 1, Python 3.11.7, 2 vCPUs; extrapolated to both ceilings,
# 46-48 min and 18-19 min.  A check sees d only mod p, so 10^5 already
# covers every class at every prime up to it; a larger value is refused.
D_MAX_CEILING = 10**5
# A brute-force count at p holds two tables of p bytes, the root counts
# and their pair table: `count --a 3 --b 5` peaked at 34 MB RSS and took
# 3.6-3.7 s at p = 9999991 (two runs, Python 3.11.7, 2 vCPUs).  Its time
# grows linearly, so a larger p is refused.
BRUTE_P_CEILING = 10**7
# A b != 0 curve has no closed form, so ap-table, lseries and ratio
# brute-count it at every prime, as does ap-table --cross-validate, and
# every lemma-verify sweep but lemma 5's does O(p) work at each prime.
# Such a sweep's time grows as limit^2 / ln(limit): at --limit 10^5,
# `ap-table --a 3 --b 5` took 69.5 s (19 MB peak RSS) and the slowest lemma,
# 4, took 125 s (20 MB; one run each, --workers 1, Python 3.11.7, 2 vCPUs),
# so 10^6 would take about 1.6 and 2.9 hours.  A larger --limit is refused.
BRUTE_LIMIT_CEILING = 10**5
# Each worker past the first is a forked copy of the process holding its
# own batches' tables, and a sweep forks as many as --workers allows once
# the work it projects it has left passes sweep.BREAK_EVEN.  The fan-out
# is for the CPUs of one machine, so a larger count is refused rather
# than forking thousands of processes.
WORKERS_CEILING = 64
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


# ------------------------------------------------------------------- handlers


def _run_verify(args) -> tuple:
    from .residue_lemmas import verify_lemma

    if args.lemma != 5 and args.limit > BRUTE_LIMIT_CEILING:  # only lemma 5's check is not O(p)
        return _fail_brute_sweep(args.limit)
    checked, mismatches = verify_lemma(args.lemma, args.limit, args.d_max, args.samples, args.seed, args.workers)
    summary = {"lemma": args.lemma, "limit": args.limit, "checked": checked, "mismatches": len(mismatches)}
    return mismatches + [summary], 1 if mismatches else 0


def _run_profile(args) -> tuple:
    from .modmath import prime_profile

    prof = prime_profile(args.p)
    record = {
        "p": prof.p,
        "minus_one": prof.class_minus_one,
        "two": prof.class_two,
        "epsilon": prof.epsilon,
        "epsilon_class": prof.class_epsilon,
    }
    return [record], 0


def _run_count(args) -> tuple:
    from .point_count import BRUTE, Curve, trace_ap

    if (args.b or args.method == BRUTE) and args.p > BRUTE_P_CEILING:
        return _fail(f"a brute-force count needs p <= {BRUTE_P_CEILING}, got {args.p}")
    record = trace_ap(Curve(args.a, args.b), args.p, method=args.method)
    shown = record.n_p + 1 if args.plus_one else record.n_p
    return [{"p": record.p, "n_p": shown, "a_p": record.a_p}], 0


def _run_ap_table(args) -> tuple:
    from .cache import read_cache, resolve_cache_path, write_cache
    from .point_count import Curve, good_odd_primes, records_for_primes
    from .sweep import map_chunks

    if (args.b or args.cross_validate) and args.limit > BRUTE_LIMIT_CEILING:
        return _fail_brute_sweep(args.limit)
    curve = Curve(args.a, args.b)
    primes = good_odd_primes(curve, args.limit)
    # The cache keeps brute-force counts only: a b = 0 curve's closed forms cost
    # less than reading them back, and --cross-validate recounts every prime.
    cache_path = resolve_cache_path(args.cache) if args.cache and args.b and not args.cross_validate else None
    cached, pmax_seen = [], -1  # with no cache read, every prime is fresh and the file is written
    if cache_path:
        try:
            pmax_seen, cached = read_cache(cache_path, curve)
        except CacheInvalidError as exc:
            print(f"curvecount: rebuilding cache {cache_path}: {exc}", file=sys.stderr)
        except FileNotFoundError:  # an absent cache is created, but only in a directory that exists
            if not os.path.isdir(os.path.dirname(cache_path) or "."):
                return _fail(f"cache {cache_path}: no such directory")
        except OSError as exc:
            return _fail(f"cache {cache_path}: {exc.strerror or exc}")
    chunk = partial(records_for_primes, curve, cross_validate=args.cross_validate)
    parts = map_chunks(chunk, [p for p in primes if p > pmax_seen], args.workers)
    fresh = [r for part in parts for r in part]
    records = [r for r in cached if r.p <= args.limit] + fresh
    if cache_path and args.limit > pmax_seen:  # a valid cache is rewritten only past its pmax
        try:
            write_cache(cache_path, curve, args.limit, cached + fresh)
        except OSError as exc:
            return _fail(f"cache {cache_path}: {exc.strerror or exc}")
    shift = 1 if args.plus_one else 0
    rows = ({"p": r.p, "n_p": r.n_p + shift, "a_p": r.a_p, "method": r.method} for r in records)
    if args.cross_validate:
        rows = ({**row, "brute_np": None if r.brute_np is None else r.brute_np + shift}
                for row, r in zip(rows, records))
    return rows, 1 if any(r.mismatch for r in records) else 0


def _run_lseries(args) -> tuple:
    from .lseries import partial_L, partial_L_exact
    from .point_count import Curve

    if args.b and args.limit > BRUTE_LIMIT_CEILING:
        return _fail_brute_sweep(args.limit)
    curve = Curve(args.a, args.b)
    if args.exact and args.s != int(args.s):
        return _fail(f"--exact needs an integer s, got {args.s}")
    digits = (2 * args.s - 1) * args.limit / math.log(10)
    if args.exact and digits > EXACT_DIGITS_CEILING:
        return _fail(f"--exact --s {args.s} --limit {args.limit} needs about {digits:.3g} digits, "
                     f"above the ceiling of {EXACT_DIGITS_CEILING}")
    if args.exact and args.s >= EXACT_S_CEILING:
        return _fail(f"--exact needs s below 2^53, got {args.s}")
    if args.exact:
        ev = partial_L_exact(curve, int(args.s), args.limit)
        ev = ev._replace(value=_fraction_str(ev.value))
    else:
        ev = partial_L(curve, args.s, args.limit)
    return [{"a": args.a, "b": args.b, **ev._asdict()}], 0


def _run_ratio(args) -> tuple:
    from itertools import chain

    from .lseries import ratio_partial
    from .point_count import Curve

    if (args.b1 or args.b2) and args.limit > BRUTE_LIMIT_CEILING:
        return _fail_brute_sweep(args.limit)
    ev = ratio_partial(Curve(args.a1, args.b1), Curve(args.a2, args.b2), args.s, args.limit)
    rows = ({"p": p, "factor": factor} for p, factor in zip(ev.primes, ev.factors))
    return chain(rows, [{"s": ev.s, "prime_bound": ev.prime_bound, "ratio": ev.ratio}]), 0


def _run_find_points(args) -> tuple:
    from .rational_points import find_points_for_d

    points = find_points_for_d(args.d, args.bound)
    return [{"d": args.d, "x": _fraction_str(p.x), "y": _fraction_str(p.y)} for p in points], 0


def _run_lemma11(args) -> tuple:
    from .rational_points import lemma11_applicable, lemma11_exhaustive

    try:
        applicable = lemma11_applicable(args.d)
    except ValueError as exc:  # a d too large for is_prime to decide
        return _fail(str(exc))
    hits = lemma11_exhaustive(args.d, args.bound)
    rows = [q._asdict() for q in hits]
    rows.append(
        {
            "d": args.d,
            "bound": args.bound,
            "applicable": applicable,
            "hits": len(hits),
            "violation": applicable and bool(hits),
        }
    )
    return rows, 1 if applicable and hits else 0


def _run_collisions(args) -> tuple:
    from .collisions import collision_search

    groups = collision_search(args.bound, workers=args.workers, coprime_only=not args.allow_non_coprime)
    return [g._asdict() for g in groups], 0


def _run_lemma8(args) -> tuple:
    from .residue_lemmas import lemma8_fraction

    ones, threes, fraction = lemma8_fraction(args.limit)
    return [{"limit": args.limit, "ones": ones, "threes": threes, "fraction": _fraction_str(fraction)}], 0


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
    workers = argparse.ArgumentParser(add_help=False)
    cpus = min(_cpus_available(), WORKERS_CEILING)
    workers.add_argument("--workers", type=_int_in(1, WORKERS_CEILING), default=cpus)
    limit = _int_in(0, LIMIT_CEILING)
    sweep_limit = _int_in(3, LIMIT_CEILING)  # lemma-verify and lemma8 need an odd prime

    p = sub.add_parser("profile", parents=[common], help="residue classes of -1, 2 and eps at p")
    p.add_argument("p", type=_odd_prime)
    p.set_defaults(handler=_run_profile)

    p = sub.add_parser("count", parents=[curve], help="n_p and a_p at one good prime")
    p.add_argument("--p", type=_odd_prime, required=True)
    p.add_argument("--method", choices=("auto", "brute"), default="auto")
    p.add_argument("--plus-one", action="store_true", help="display the projective count n_p + 1")
    p.set_defaults(handler=_run_count)

    p = sub.add_parser("ap-table", parents=[curve, workers], help="a_p records for all good odd primes <= limit")
    p.add_argument("--limit", type=limit, required=True)
    p.add_argument("--cache", help="cache file of brute-force counts; relative paths resolve under "
                   "$CURVECOUNT_CACHE_DIR; ignored on a b = 0 curve and under --cross-validate")
    p.add_argument("--cross-validate", action="store_true", help="recompute and check every record against brute force")
    p.add_argument("--plus-one", action="store_true")
    p.set_defaults(handler=_run_ap_table)

    p = sub.add_parser("lemma-verify", parents=[common, workers], help="sweep one closed-form claim against brute force")
    # residue_lemmas.LEMMAS's keys, written out so that building the parser loads no library module
    p.add_argument("--lemma", type=int, choices=range(1, 8), required=True)
    p.add_argument("--limit", type=sweep_limit, required=True)
    p.add_argument("--d-max", type=_int_in(1, D_MAX_CEILING), default=20)
    p.add_argument("--samples", type=_int_in(1), default=20, help="a values sampled per prime (lemma 1)")
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("collisions", parents=[common, workers], help="pairs sharing V = em(m+e)^2")
    p.add_argument("--bound", type=_int_in(2, COLLISION_BOUND_CEILING), required=True)
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
        rows, status = args.handler(args)
    except (SingularCurveError, BadReductionError) as exc:  # raised by the library before any work
        rows, status = _fail(str(exc))
    _emit(rows, args.format)  # no library call runs while it writes, so no error cuts a table short
    return status


def entry() -> None:
    try:
        status = main()
        sys.stdout.flush()  # so a closed stdout shows here, not in the flush at exit
    except BrokenPipeError:  # the reader has gone: end quietly, as SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit writes nowhere
        status = 141
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
