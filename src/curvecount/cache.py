"""Line-oriented cache of brute-force a_p counts: one file per curve and prime range.

Layout is a single header line

    curvecount-cache v1 a=<int> b=<int> pmin=3 pmax=<int>

followed by one `p,n_p,a_p,brute` record per good odd prime up to pmax,
ascending, each line ending in "\\n".  Only a b != 0 curve, whose traces
are all brute-force counts, has a cache.  One rule decides: a file is
valid exactly when its text is what write_cache writes for the records
ap-table would hold up to its pmax.  Only each line's p and a_p are read,
so a tampered a_p that keeps the Hasse bound is served.  Anything else raises
CacheInvalidError, and callers recompute and overwrite: a bad file costs
time, not results.
"""

from __future__ import annotations

import math
import os
from itertools import zip_longest

from .errors import CacheInvalidError
from .point_count import BRUTE, Curve, PointCountRecord, _nonsingular_discriminant, prime_split

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
    the caller (only the latter overwrites something).  A b = 0 curve has
    no cache, so asking for one is the caller's error, a ValueError.
    """
    if curve.b == 0:
        raise ValueError(f"{curve} has closed-form traces only, which are not cached")
    delta = _nonsingular_discriminant(curve)  # a singular curve is the caller's error
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CacheInvalidError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    # Only pmax and each line's p and a_p are read; the rest must come out as the
    # same text.  `line` is the header, then each record line, so a parse error quotes it.
    line, *lines = text.removesuffix("\n").split("\n")
    records = []
    try:
        pmax = int(line.rpartition("pmax=")[2])
        header = _cache_text(curve, pmax, [])
        if not text.startswith(header):
            raise CacheInvalidError(f"{text[:len(line) + 1]!r} is not what write_cache writes: {header!r}")
        for line in lines:
            p, _, a_p, _ = line.split(",")
            p, a_p = int(p), int(a_p)
            records.append(PointCountRecord(p, p - a_p, a_p, BRUTE))
    except ValueError:
        raise CacheInvalidError(f"{line!r} is not a cache line") from None
    # Rosser (1941): pi(x) > x/ln x for x >= 17, and 2 and at most bit_length(|disc|)
    # other primes are bad, so a valid file holds more than pmax/ln(pmax) - 1 -
    # bit_length(|disc|) records.  Fewer are refused before the sieve to pmax.
    if pmax >= 17 and (len(records) + 1 + abs(delta).bit_length()) * math.log(pmax) < pmax:
        raise CacheInvalidError(f"pmax={pmax}: {len(records)} records are too few to be every good odd prime <= {pmax}")
    for p, line, record in zip_longest(prime_split(curve, pmax)[0], lines, records):
        if record is None:
            raise CacheInvalidError(f"no record for p = {p}")
        if p is None:
            raise CacheInvalidError(f"{line!r} is past the last good odd prime <= {pmax}")
        if record.p != p:
            raise CacheInvalidError(f"{line!r} stands where p = {p}'s record belongs")
        if record.a_p * record.a_p >= 4 * p:
            raise CacheInvalidError(f"{line!r} breaks the Hasse bound at p = {p}")
    expected = _cache_text(curve, pmax, records)
    if text != expected:
        for got, want in zip_longest(text.splitlines(True), expected.splitlines(True), fillvalue=""):
            if got != want:
                raise CacheInvalidError(f"{got!r} is not what write_cache writes: {want!r}")
    return pmax, records
