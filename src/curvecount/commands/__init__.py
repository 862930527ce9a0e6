"""The CLI's subcommand handlers, one module each.

Each module's run(args) turns the parsed arguments of its subcommand
into (rows, exit status) and writes nothing to stdout; cli.main imports
only the module of the subcommand it parsed.  This package holds what
the handlers share: the usage-error helpers, the Fraction formatter and
the ceilings that only a handler can check, since they need the curve or
two arguments.  A handler imports these and the library functions it
calls inside run, so each is looked up when the handler runs.  No
module here imports curvecount.cli: under `python -m curvecount.cli`
that module runs as __main__, and importing it would compile it again.
"""

from __future__ import annotations

import sys


def _fraction_str(q) -> str:
    # str(Decimal(n)) is exact and, unlike str(n), not capped by the
    # int-to-str digit limit (4300 by default) that exact products outgrow.
    from decimal import Decimal

    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _fail(message: str) -> tuple[list, int]:
    print(f"curvecount: error: {message}", file=sys.stderr)
    return [], 2


def _fail_brute_sweep(limit: int) -> tuple[list, int]:
    return _fail(f"a sweep that brute-counts every prime needs --limit <= {BRUTE_LIMIT_CEILING}, got {limit}")


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
# An exact product's numerator prod p^(2s-1) has at most
# (2s - 1) * limit / ln 10 digits, since theta(x) = sum of ln p < x.
EXACT_DIGITS_CEILING = 10**6
# --s is parsed as a float, which holds every integer below 2^53 but not
# every one above it, so --exact refuses an s that may have been rounded.
EXACT_S_CEILING = 2**53
