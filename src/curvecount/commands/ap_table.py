"""ap-table: a_p records for all good odd primes <= limit."""

import os
import sys

from ..errors import CacheInvalidError


def run(args) -> tuple:
    from ..cache import read_cache, resolve_cache_path, write_cache
    from ..point_count import Curve, ap_table
    from . import BRUTE_LIMIT_CEILING, _fail, _fail_brute_sweep

    if (args.b or args.cross_validate) and args.limit > BRUTE_LIMIT_CEILING:
        return _fail_brute_sweep(args.limit)
    curve = Curve(args.a, args.b)
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
    records = ap_table(curve, args.limit, args.cross_validate, args.workers, cached)
    if cache_path and args.limit > pmax_seen:  # a valid cache is rewritten only past its pmax
        try:
            write_cache(cache_path, curve, args.limit, records)
        except OSError as exc:
            return _fail(f"cache {cache_path}: {exc.strerror or exc}")
    shift = 1 if args.plus_one else 0
    rows = ({"p": r.p, "n_p": r.n_p + shift, "a_p": r.a_p, "method": r.method} for r in records)
    if args.cross_validate:
        rows = ({**row, "brute_np": None if r.brute_np is None else r.brute_np + shift}
                for row, r in zip(rows, records))
    return rows, 1 if any(r.mismatch for r in records) else 0
