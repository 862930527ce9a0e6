"""Line-oriented a_p cache: one file per curve and prime range.

Layout is a single header line

    curvecount-cache v1 a=<int> b=<int> pmin=<int> pmax=<int>

followed by one `p,n_p,a_p,method` record per line, ascending in p.
Anything off-format raises CacheInvalidError; callers recompute and
overwrite rather than crash, so a stale or tampered file costs time,
never correctness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CacheInvalidError
from .point_count import METHODS, Curve, PointCountRecord, good_odd_primes

MAGIC = "curvecount-cache"
VERSION = "v1"
ENV_CACHE_DIR = "CURVECOUNT_CACHE_DIR"


@dataclass(frozen=True)
class CacheHeader:
    """Identity line: which curve, and which prime range was swept."""

    a: int
    b: int
    pmin: int
    pmax: int

    def line(self) -> str:
        return f"{MAGIC} {VERSION} a={self.a} b={self.b} pmin={self.pmin} pmax={self.pmax}"


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
    return CacheHeader(a, b, pmin, pmax)


def _record_line(record: PointCountRecord) -> str:
    return f"{record.p},{record.n_p},{record.a_p},{record.method}"


def _parse_record(line: str) -> PointCountRecord:
    parts = line.split(",")
    if len(parts) != 4:
        raise CacheInvalidError(f"malformed record {line!r}")
    try:
        p, n_p, a_p = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise CacheInvalidError(f"malformed record {line!r}") from None
    method = parts[3]
    if method not in METHODS:
        raise CacheInvalidError(f"unknown method {method!r}")
    if a_p != p - n_p:
        raise CacheInvalidError(f"inconsistent record {line!r}")
    if a_p * a_p >= 4 * p:
        raise CacheInvalidError(f"record breaks the Hasse bound {line!r}")
    return PointCountRecord(p, n_p, a_p, method)


def write_cache(path: str, curve: Curve, pmax: int, records: list[PointCountRecord], pmin: int = 3) -> None:
    """Serialize header + records; records must be ascending in p."""
    lines = [CacheHeader(curve.a, curve.b, pmin, pmax).line()]
    lines.extend(_record_line(r) for r in records)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_cache(path: str, curve: Curve) -> tuple[CacheHeader, list[PointCountRecord]]:
    """Parse and validate; any deviation is CacheInvalidError.

    A missing file raises FileNotFoundError instead: absent and invalid
    are different conditions for the caller (only the latter overwrites
    something).
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CacheInvalidError("empty cache file")
    header = parse_header(lines[0])
    if (header.a, header.b) != (curve.a, curve.b):
        raise CacheInvalidError(
            f"cache is for curve ({header.a}, {header.b}), wanted ({curve.a}, {curve.b})"
        )
    records = [_parse_record(line) for line in lines[1:] if line]
    expected = [p for p in good_odd_primes(curve, header.pmax) if p >= header.pmin]
    if [r.p for r in records] != expected:
        raise CacheInvalidError(
            f"records are not one per good odd prime in [{header.pmin}, {header.pmax}], ascending"
        )
    return header, records
