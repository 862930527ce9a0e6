"""Command-line front end.

One subcommand per library surface; records stream to stdout as JSON
Lines (default) or CSV.  Exit codes: 0 success, 1 a sweep found a
claim/oracle mismatch (the finding is the output, not a crash), 2 bad
usage: each argument's range is checked once, by its argparse type, and
rules needing the curve or two arguments exit 2 before any work too, as
does a --cache path that cannot be read or created; 141 (128 + SIGPIPE)
when stdout's reader closed it early, with nothing on stderr.
"""

# A call imports and compiles only what its subcommand runs: this module
# holds the parser, its argument types and the ceilings they check (the
# module docstring is the --help text), and each subcommand's handler is
# run(args) in its own module of curvecount.commands, which main imports
# by name once the arguments parse.  No command module imports this one:
# under `python -m curvecount.cli` it runs as __main__, so an import
# would compile it a second time.  A handler returns its rows and exit
# status and writes nothing to stdout: main is its one writer, through
# one _emit call.  The rows of ap-table and ratio are generators over
# finished results, so a jsonl run holds one row at a time.

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .commands import _fail
from .errors import BadReductionError, SingularCurveError
from .modmath import _MR_CEILING, require_odd_prime


def _emit(rows, fmt: str) -> None:
    # One stdlib writer call a format; sys.stdout's own buffer batches the writes.
    if fmt == "csv":
        import csv

        rows = list(rows)  # the header is the union of every row's keys
        fieldnames = list(dict.fromkeys(key for row in rows for key in row))
        if fieldnames:
            writer = csv.writer(sys.stdout)
            writer.writerow(fieldnames)
            writer.writerows([_csv_cell(row.get(k)) for k in fieldnames] for row in rows)
    else:
        sys.stdout.writelines(json.dumps(row) + "\n" for row in rows)


def _csv_cell(value):  # csv writes None, and so a key a row lacks, as an empty cell
    return json.dumps(value) if isinstance(value, (list, tuple)) else value


# A sieve to --limit allocates about limit bytes plus the prime list, and
# ap-table holds every record; csv also holds every row, for its header.
# `ap-table --a -1 --b 0 --workers 1` peaked at 28 MB RSS at limit 10^6
# and 132 MB at 10^7 in jsonl (about 0.2 KB a prime, so 1.1 GB at 10^8),
# and 46 and 275 MB in csv (0.4 KB a prime, 2.4 GB at 10^8); medians of 9
# and 3 fresh runs, Python 3.11.7.  find-points and lemma11 mark
# 2 bound + 1 bytes.  Larger values are refused before any work.
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
# Each worker past the first is a forked copy of the process holding its
# own batches' tables, and a sweep forks as many as --workers allows once
# the work it projects it has left passes sweep.BREAK_EVEN.  The fan-out
# is for the CPUs of one machine, so a larger count is refused rather
# than forking thousands of processes.
WORKERS_CEILING = 64


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

    p = sub.add_parser("count", parents=[curve], help="n_p and a_p at one good prime")
    p.add_argument("--p", type=_odd_prime, required=True)
    p.add_argument("--method", choices=("auto", "brute"), default="auto")
    p.add_argument("--plus-one", action="store_true", help="display the projective count n_p + 1")

    p = sub.add_parser("ap-table", parents=[curve, workers], help="a_p records for all good odd primes <= limit")
    p.add_argument("--limit", type=limit, required=True)
    p.add_argument("--cache", help="cache file of brute-force counts; relative paths resolve under "
                   "$CURVECOUNT_CACHE_DIR; ignored on a b = 0 curve and under --cross-validate")
    p.add_argument("--cross-validate", action="store_true", help="recompute and check every record against brute force")
    p.add_argument("--plus-one", action="store_true")

    p = sub.add_parser("lemma-verify", parents=[common, workers], help="sweep one closed-form claim against brute force")
    # residue_lemmas.LEMMAS's keys, written out so that building the parser loads no library module
    p.add_argument("--lemma", type=int, choices=range(1, 8), required=True)
    p.add_argument("--limit", type=sweep_limit, required=True)
    p.add_argument("--d-max", type=_int_in(1, D_MAX_CEILING), default=20)
    p.add_argument("--samples", type=_int_in(1), default=20, help="a values sampled per prime (lemma 1)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("lseries", parents=[curve], help="truncated Euler product at s")
    p.add_argument("--s", type=_positive_float, required=True)
    p.add_argument("--limit", type=limit, required=True)
    p.add_argument("--exact", action="store_true", help="exact rational product (integer s only)")

    p = sub.add_parser("ratio", parents=[common], help="factorwise quotient of two truncated products")
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--b2", type=int, required=True)
    p.add_argument("--s", type=_positive_float, required=True)
    p.add_argument("--limit", type=limit, required=True)

    p = sub.add_parser("find-points", parents=[common], help="rational points on y^2 = x^3 - d^2 x")
    p.add_argument("--d", type=_int_in(1), required=True)
    p.add_argument("--bound", type=_int_in(2, BOUND_CEILING), required=True)

    p = sub.add_parser("lemma11", parents=[common], help="exhaustive no-solution check for prime d = 3 (mod 8)")
    p.add_argument("--d", type=_int_in(1, _MR_CEILING - 1), required=True)  # where is_prime decides
    p.add_argument("--bound", type=_int_in(0, BOUND_CEILING), required=True)

    p = sub.add_parser("collisions", parents=[common, workers], help="pairs sharing V = em(m+e)^2")
    p.add_argument("--bound", type=_int_in(2, COLLISION_BOUND_CEILING), required=True)
    p.add_argument("--allow-non-coprime", action="store_true")

    p = sub.add_parser("lemma8", parents=[common], help="split of odd primes by p mod 4")
    p.add_argument("--limit", type=sweep_limit, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # __import__, unlike importlib.import_module, shows in -X importtime
    handler = __import__(f"{__package__}.commands.{args.command.replace('-', '_')}", fromlist=["run"])
    try:
        rows, status = handler.run(args)
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
