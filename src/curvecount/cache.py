"""Line-oriented a_p cache: one file per curve and prime range.

Layout is a single header line

    curvecount-cache v1 a=<int> b=<int> pmin=3 pmax=<int>

followed by one `p,n_p,a_p,method` record per line, ascending in p, each
line ending in "\\n".  A file is valid exactly when its text is what
write_cache writes for its curve, pmax and records; anything else raises
CacheInvalidError, and callers recompute and overwrite rather than crash,
so a stale or tampered file costs time, never correctness.
"""

from __future__ import annotations

import math
import os
from itertools import zip_longest

from .errors import CacheInvalidError
from .point_count import Curve, PointCountRecord, _auto_method, good_odd_primes

ENV_CACHE_DIR = "CURVECOUNT_CACHE_DIR"


def resolve_cache_path(path: str) -> str:
    """Relative paths land in $CURVECOUNT_CACHE_DIR when it is set."""
    base = os.environ.get(ENV_CACHE_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _cache_text(curve: Curve, pmax: int, records: list[PointCountRecord]) -> str:
    """The cache format, in full: the one text a cache file may hold."""
    lines = [f"curvecount-cache v1 a={curve.a} b={curve.b} pmin=3 pmax={pmax}"]
    lines.extend(f"{r.p},{r.n_p},{r.a_p},{r.method}" for r in records)
    return "\n".join(lines) + "\n"


def write_cache(path: str, curve: Curve, pmax: int, records: list[PointCountRecord]) -> None:
    """Serialize header + records; records must be ascending in p.

    The file is written beside path and then moved over it, so a write
    that fails midway leaves the previous cache as it was.
    """
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", newline="") as handle:
            handle.write(_cache_text(curve, pmax, records))
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def read_cache(path: str, curve: Curve) -> tuple[int, list[PointCountRecord]]:
    """(pmax, records) of a valid cache; any deviation is CacheInvalidError.

    A file that cannot be read raises OSError instead, FileNotFoundError
    when it is missing: absent and invalid are different conditions for
    the caller (only the latter overwrites something).
    """
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CacheInvalidError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    # Only pmax, p and a_p are read: everything else is rebuilt from them
    # and must come out as the same text.  `line` is the header, then each
    # record line in turn, so an error quotes the line that failed.
    line, *lines = text.split("\n")
    records = []
    try:
        pmax = int(line.rpartition("pmax=")[2])
        for line in filter(None, lines):
            p, _, a_p, _ = line.split(",")
            p, a_p = int(p), int(a_p)
            if a_p * a_p >= 4 * p:
                raise CacheInvalidError(f"{line!r} breaks the Hasse bound")
            records.append(PointCountRecord(p, p - a_p, a_p, _auto_method(curve, p)))
    except ValueError:
        raise CacheInvalidError(f"{line!r} is not a cache line") from None
    expected = _cache_text(curve, pmax, records)
    if text != expected:
        for got, want in zip_longest(text.splitlines(True), expected.splitlines(True), fillvalue=""):
            if got != want:
                raise CacheInvalidError(f"{got!r} is not what write_cache writes: {want!r}")
    # The text holds one record per line, but only the good odd primes up to
    # pmax say which lines there must be.  Rosser (1941): pi(x) > x/ln x for
    # x >= 17.  The bad primes are 2 and at most bit_length(|disc|) others,
    # so a valid file holds more than pmax/ln(pmax) - 1 - bit_length(|disc|)
    # records; fewer fails without a sieve.
    if pmax >= 17 and (len(records) + 1 + abs(curve.discriminant()).bit_length()) * math.log(pmax) < pmax:
        raise CacheInvalidError(f"pmax={pmax}: {len(records)} records are too few to be every good odd prime <= {pmax}")
    if [r.p for r in records] != good_odd_primes(curve, pmax):
        raise CacheInvalidError(f"records are not one per good odd prime in [3, {pmax}], ascending")
    return pmax, records
