"""Run one `curvecount` CLI call with spans around the public functions.

    python shim.py SPANS_OUT OP_ID CLI_ARG...

Every listed function is replaced, in each `curvecount` module namespace
that binds it, by a wrapper that records a span (name, start, end,
parent) in memory; `cli` and `lseries` import `trace_ap` by name, so
binding it in `point_count` alone would miss their calls.  A few
wrappers also record counts taken at that boundary.  The spans, counts
and lru_cache statistics are written to SPANS_OUT as JSON when the call
ends, also when it raises; the exit code and traceback are those of an
untraced `python -m curvecount.cli` run.  No library code changes.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

WRAPPED = {
    "modmath": (
        "sieve_primes", "is_prime", "require_odd_prime", "legendre_symbol", "mod_inverse",
        "sqrt_of_minus_one", "primitive_root", "quadratic_residues", "quartic_residues", "prime_profile",
    ),
    "residue_lemmas": (
        "count_lemma2", "count_quartic", "census", "lemma4_check", "lemma5_hit", "lemma5_scan",
        "lemma6_check", "lemma8_fraction",
    ),
    "point_count": (
        "count_affine_points", "np_lemma1", "np_lemma3", "trace_ap", "lemma7_check",
        "double_point_mod", "good_odd_primes", "records_for_primes", "ap_table",
    ),
    "lseries": (
        "discriminant", "good_primes", "euler_factor", "euler_factor_exact", "partial_L",
        "partial_L_exact", "ratio_partial",
    ),
    "rational_points": (
        "pythagorean_from_param", "d_from_param", "points_from_param", "double_point_rational",
        "find_points_for_d", "lemma11_applicable", "lemma11_exhaustive", "collision_search",
    ),
    "cache": ("resolve_cache_path", "parse_header", "write_cache", "read_cache"),
    "cli": ("main", "build_parser"),
}

# lru_cache statistics read when the call ends: metric prefix -> (module, attribute).
CACHES = {
    "modmath.quadratic_residues": ("modmath", "quadratic_residues"),
    "residue_lemmas.census_cache": ("residue_lemmas", "_quartic_census"),
}


def _arg(args: tuple, kwargs: dict, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.searches: list[dict] = []
        self.missing: list[str] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, qualname: str, hook=None):
        name_id = len(self.names)
        self.names.append(qualname)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counts recorded at function boundaries, keyed as the metric names.

    def _hooks(self) -> dict:
        # A search scans the (e, m) pairs up to its bound; the benchmark
        # counts those pairs itself.  Hits are the pairs that qualified:
        # each one yields exactly one point with x > 0 and y > 0.
        def on_find_points(args, kwargs, points):
            hits = sum(1 for pt in points if pt.x > 0 and pt.y > 0)
            self.searches.append({"bound": _arg(args, kwargs, 1, "bound"), "coprime": True, "hits": hits})

        def on_lemma11(args, kwargs, hits):
            self.searches.append({"bound": _arg(args, kwargs, 1, "bound"), "coprime": True, "hits": len(hits)})

        def on_collisions(args, kwargs, groups):
            self.searches.append(
                {
                    "bound": _arg(args, kwargs, 0, "bound"),
                    "coprime": _arg(args, kwargs, 2, "coprime_only", True),
                    "hits": sum(len(g.members) for g in groups),
                }
            )
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.counters["collision_peak_rss_mb"] = max(self.counters.get("collision_peak_rss_mb", 0), rss_mb)

        return {
            "point_count.trace_ap": lambda args, kwargs, rec: self.count("trace_ap." + rec.method),
            "point_count.count_affine_points": lambda args, kwargs, n: self.count(
                "field_elems", _arg(args, kwargs, 1, "p")
            ),
            "point_count.records_for_primes": lambda args, kwargs, recs: self.count("records_computed", len(recs)),
            "cache.write_cache": lambda args, kwargs, _: self.count(
                "cache_bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path"))
            ),
            "rational_points.find_points_for_d": on_find_points,
            "rational_points.lemma11_exhaustive": on_lemma11,
            "rational_points.collision_search": on_collisions,
        }

    def install(self) -> dict:
        """Wrap every listed function wherever a curvecount module binds it."""
        modules = {name: importlib.import_module(f"curvecount.{name}") for name in WRAPPED}
        hooks = self._hooks()
        wrappers = {}
        for home, functions in WRAPPED.items():
            for function in functions:
                original = getattr(modules[home], function, None)
                if original is None:
                    self.missing.append(f"{home}.{function}")
                    continue
                qualname = f"{home}.{function}"
                wrappers[id(original)] = (original, self.wrap(original, qualname, hooks.get(qualname)))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
        return modules

    def dump(self, path: str, op_id: str, modules: dict) -> None:
        caches = {}
        for prefix, (home, attr) in CACHES.items():
            fn = getattr(modules[home], attr, None)
            if not hasattr(fn, "cache_info"):  # a span wrapper around the lru_cache object
                fn = getattr(fn, "__wrapped__", None)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                caches[prefix] = {"hits": info.hits, "misses": info.misses}
            else:
                self.missing.append(f"{home}.{attr}.cache_info")
        with open(path, "w") as handle:
            handle.write(json.dumps(
                {
                    "op": op_id,
                    "names": self.names,
                    "name": self.name,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                    "counters": self.counters,
                    "searches": self.searches,
                    "caches": caches,
                    "missing": self.missing,
                }
            ))


def main() -> int:
    out_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    modules = tracer.install()
    try:
        return modules["cli"].main(argv)
    finally:
        tracer.dump(out_path, op_id, modules)


if __name__ == "__main__":
    sys.exit(main())
