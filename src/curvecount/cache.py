"""Line-oriented a_p cache: one file per curve and prime range.

Layout is a single header line

    curvecount-cache v1 a=<int> b=<int> pmin=3 pmax=<int>

followed by one `p,n_p,a_p,method` record per line, ascending in p.
Anything off-format raises CacheInvalidError; callers recompute and
overwrite rather than crash, so a stale or tampered file costs time,
never correctness.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .errors import CacheInvalidError
from .point_count import Curve, PointCountRecord, _auto_method, good_odd_primes

MAGIC = "curvecount-cache"
VERSION = "v1"
ENV_CACHE_DIR = "CURVECOUNT_CACHE_DIR"


class CacheHeader(namedtuple("CacheHeader", "a b pmax")):
    """Identity line: which curve, and up to which prime it was swept."""

    __slots__ = ()

    def line(self) -> str:
        return f"{MAGIC} {VERSION} a={self.a} b={self.b} pmin=3 pmax={self.pmax}"


def resolve_cache_path(path: str) -> str:
    """Relative paths land in $CURVECOUNT_CACHE_DIR when it is set."""
    base = os.environ.get(ENV_CACHE_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _parse_tagged_int(token: str, tag: str) -> int:
    prefix = tag + "="
    if not token.startswith(prefix):
        raise CacheInvalidError(f"expected {tag}=<int>, got {token!r}")
    try:
        return int(token[len(prefix):])
    except ValueError:
        raise CacheInvalidError(f"bad integer in {token!r}") from None


def parse_header(line: str) -> CacheHeader:
    tokens = line.split()
    if len(tokens) != 6 or tokens[0] != MAGIC:
        raise CacheInvalidError(f"not a cache header: {line!r}")
    if tokens[1] != VERSION:
        raise CacheInvalidError(f"unsupported cache version {tokens[1]!r}")
    a, b, pmin, pmax = (
        _parse_tagged_int(token, tag)
        for token, tag in zip(tokens[2:], ("a", "b", "pmin", "pmax"))
    )
    if pmin != 3:
        raise CacheInvalidError(f"pmin={pmin}, but every cache starts at pmin=3")
    return CacheHeader(a, b, pmax)


def _record_line(record: PointCountRecord) -> str:
    return f"{record.p},{record.n_p},{record.a_p},{record.method}"


def _parse_record(line: str, curve: Curve) -> PointCountRecord:
    parts = line.split(",")
    if len(parts) != 4:
        raise CacheInvalidError(f"malformed record {line!r}")
    try:
        p, n_p, a_p = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise CacheInvalidError(f"malformed record {line!r}") from None
    method = parts[3]
    if method != _auto_method(curve, p):
        raise CacheInvalidError(f"method {method!r} is not the one trace_ap uses at p = {p}")
    if a_p != p - n_p:
        raise CacheInvalidError(f"inconsistent record {line!r}")
    if a_p * a_p >= 4 * p:
        raise CacheInvalidError(f"record breaks the Hasse bound {line!r}")
    return PointCountRecord(p, n_p, a_p, method)


def write_cache(path: str, curve: Curve, pmax: int, records: list[PointCountRecord]) -> None:
    """Serialize header + records; records must be ascending in p.

    The file is written beside path and then moved over it, so a write
    that fails midway leaves the previous cache as it was.
    """
    lines = [CacheHeader(curve.a, curve.b, pmax).line()]
    lines.extend(_record_line(r) for r in records)
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def read_cache(path: str, curve: Curve) -> tuple[CacheHeader, list[PointCountRecord]]:
    """Parse and validate; any deviation is CacheInvalidError.

    A file that cannot be read raises OSError instead, FileNotFoundError
    when it is missing: absent and invalid are different conditions for
    the caller (only the latter overwrites something).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CacheInvalidError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if not lines:
        raise CacheInvalidError("empty cache file")
    header = parse_header(lines[0])
    if (header.a, header.b) != (curve.a, curve.b):
        raise CacheInvalidError(
            f"cache is for curve ({header.a}, {header.b}), wanted ({curve.a}, {curve.b})"
        )
    records = [_parse_record(line, curve) for line in lines[1:] if line]
    # Valid means what write_cache writes for this curve and pmax: one record
    # per good odd prime <= pmax.  Rosser (1941): pi(x) > x/ln x for x >= 17.
    # The bad primes are 2 and at most bit_length(|disc|) others, so such a
    # file holds more than pmax/ln(pmax) - 1 - bit_length(|disc|) records;
    # fewer fails without a sieve.
    pmax = header.pmax
    if pmax >= 17 and (len(records) + 1 + abs(curve.discriminant()).bit_length()) * math.log(pmax) < pmax:
        raise CacheInvalidError(f"pmax={pmax}: {len(records)} records are too few to be every good odd prime <= {pmax}")
    if [r.p for r in records] != good_odd_primes(curve, pmax):
        raise CacheInvalidError(f"records are not one per good odd prime in [3, {pmax}], ascending")
    return header, records
