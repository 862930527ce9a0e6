"""curvecount benchmark: fixed, seed-generated lists of CLI ops.

    python3 perfbench/run.py --workload twist_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is its `src/`.
One client runs a closed loop: each op is a fresh
`python -m curvecount.cli ...` child, started only after the previous
one ended, because CLI users pay the cold in-process caches on every
call.  The op list is repeated for a fixed number of rounds (set by
--seconds, not by how fast the rounds go, so every metric keeps one
sample count), each round in a fresh $CURVECOUNT_CACHE_DIR.  Every
output is checked by checker.py, whose oracles share no code with
`src/`.  Ops that take --workers run at 1 and 2 workers and must print
identical bytes.

On a shared cloud VM the CPU can switch between speed states: on a
2-vCPU Xeon VM they were about a third apart, lasted a second or more,
and their mix drifted from minute to minute.  A single order statistic
of the pooled op times jumps between those states, so the per-op
figures average over rounds first: op_s.p50 is the median over the op
list of each op's mean time, and op_s.tail the mean of the op samples
at and beyond the highest percentile with 10 samples beyond it.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
rounds with rounds whose children run under shim.py (all at one
worker, since spans in pool children would be lost) and prints the
per-layer metrics.  A human-readable report goes to stderr; the last
stdout line is the JSON result.  `correct` is false when an op failed
in a way that is not one of the known seed defects listed in
workloads.py; those still count in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from checker import Checker, Outcome, Verdict
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds one round takes on the reference machine; rounds = seconds / this.
NOMINAL_ROUND_S = {"twist_sweep": 7.5, "brute_verify": 8.8, "rational_search": 6.0}
MIN_ROUNDS = 3
# A set-up probe runs before every third op, so their median spans the run.
SETUP_PROBE_EVERY = 3
# No round starts after this, and no op may run longer than OP_TIMEOUT_S,
# so a much slower or hung tree still exits in time.
MAX_ELAPSED_S = 120.0
OP_TIMEOUT_S = 45.0

END_TO_END = {
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "parallel_eff": "ratio",
}

# Functions whose self time (and call count) is a per-layer metric.
SELF_TIMED = (
    "residue_lemmas.count_quartic",
    "point_count.trace_ap",
    "point_count.count_affine_points",
    "modmath.is_prime",
    "modmath.sieve_primes",
    "modmath.quadratic_residues",
    "modmath.quartic_residues",
    "lseries.partial_L",
    "lseries.ratio_partial",
    "lseries.euler_factor_exact",
    "cli.main",
    "cache.read_cache",
    "cache.write_cache",
    "rational_points.find_points_for_d",
    "rational_points.lemma11_exhaustive",
    "rational_points.collision_search",
)
CALL_COUNTED = (
    "residue_lemmas.count_quartic",
    "point_count.count_affine_points",
    "modmath.is_prime",
    "modmath.sieve_primes",
    "lseries.euler_factor_exact",
)
TRACE_METHODS = ("lemma1", "lemma3_minus", "lemma3_plus", "brute")

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **{f"point_count.trace_ap.calls.{method}": "count" for method in TRACE_METHODS},
    "residue_lemmas.census_cache.hit_ratio": "ratio",
    "point_count.count_affine_points.field_elems": "count",
    "modmath.quadratic_residues.misses": "count",
    "cache.bytes_written": "bytes",
    "cache.served_ratio": "ratio",
    "rational_points.pairs_scanned": "count",
    "rational_points.hit_ratio": "ratio",
    "rational_points.collision_search.peak_rss_mb": "MB",
    "pool.overhead_s": "s",
    "process.startup_s": "s",
    "process.exit_s": "s",
    "trace.other_self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    """One op execution: which op, at which worker count, and how it went."""

    op: int
    workers: int | None
    wall_s: float
    rss_mb: float
    verdict: Verdict
    layers: dict | None = None


class Spawner:
    """The small process (spawn.py) that starts, times and reaps every child.

    Children are not started from this process because its own peak RSS
    would then count in theirs; see spawn.py.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def run(self, cmd: list[str], env: dict, scratch: Path) -> tuple[Outcome, float, float, float]:
        """Run one child to completion: (outcome, start, end, peak RSS in MB).

        A child still running after OP_TIMEOUT_S is killed with its pool
        workers, which the checker reports as a crash.
        """
        out_path, err_path = scratch / "stdout", scratch / "stderr"
        request = {
            "cmd": cmd,
            "env": env,
            "cwd": str(ROOT),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": OP_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"the spawner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        outcome = Outcome(reply["exit_code"], out_path.read_bytes(), err_path.read_bytes())
        return outcome, reply["start"], reply["end"], reply["maxrss_kb"] / 1024

    def close(self) -> None:
        """Stop the spawner, killing and reaping a child it still runs."""
        self.proc.stdin.close()
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def child_env(cache_dir: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "CURVECOUNT_CACHE_DIR": str(cache_dir)}


def probe_setup(spawner: Spawner, scratch: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    code = "import curvecount, curvecount.cli as cli; cli.build_parser(); print(curvecount.__file__)"
    outcome, start, end, _ = spawner.run([sys.executable, "-c", code], child_env(scratch), scratch)
    loaded = Path(outcome.stdout.decode().strip() or ".").resolve()
    if outcome.exit_code != 0 or SRC not in loaded.parents:
        raise BenchError(f"could not import curvecount from {SRC}: {outcome.stderr.decode()[-300:]}")
    return end - start


# ------------------------------------------------------------------ one round


def run_round(
    spawner: Spawner, ops, checker: Checker, round_dir: Path, traced: bool, flip: bool, setup: list[float]
) -> list[Sample]:
    """One pass over the op list; flip runs each worker pair 2-then-1.

    Set-up probe times are appended to `setup`.
    """
    round_dir.mkdir(parents=True)
    env = child_env(round_dir)
    samples = []
    for index, op in enumerate(ops):
        if index % SETUP_PROBE_EVERY == 0:
            setup.append(probe_setup(spawner, round_dir.parent))
        worker_counts = op.workers[:1] if traced else op.workers[::-1] if flip else op.workers
        runs = []
        for workers in worker_counts or (None,):
            argv = op.argv(workers)
            spans = round_dir / f"spans-{index}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "shim.py"), str(spans), str(index), *argv]
            else:
                cmd = [sys.executable, "-m", "curvecount.cli", *argv]
            outcome, start, end, rss = spawner.run(cmd, env, round_dir)
            sample = Sample(index, workers, end - start, rss, checker.check(index, op, outcome))
            if traced:
                if not spans.exists():
                    raise BenchError(f"op {index}: the trace shim wrote no spans: {outcome.stderr.decode()[-300:]}")
                sample.layers = op_layers(op, outcome, start, end, json.loads(spans.read_text()))
            runs.append((sample, outcome))
        if len(runs) == 2:
            two = next(sample for sample, _ in runs if sample.workers == 2)
            if two.verdict.ok:
                two.verdict = Checker.check_pair(runs[0][1], runs[1][1])
        samples += [sample for sample, _ in runs]
    return samples


def pairs_scanned(bound: int, coprime: bool) -> int:
    """Pairs 1 <= e < m <= bound a search visits: sum of phi(m) if coprime."""
    if not coprime:
        return bound * (bound - 1) // 2
    phi = list(range(bound + 1))
    for i in range(2, bound + 1):
        if phi[i] == i:
            for j in range(i, bound + 1, i):
                phi[j] -= phi[j] // i
    return sum(phi[2:])


def op_layers(op, outcome: Outcome, start: float, end: float, trace: dict) -> dict:
    """Per-layer sums for one traced op, from its spans and counts.

    Time outside the cli.main span splits into startup (spawn to main:
    interpreter, imports, installing the shim) and exit (main to exit:
    writing the spans, interpreter teardown).
    """
    names, name_of, parent = trace["names"], trace["name"], trace["parent"]
    duration = [(e - s) / 1e9 for s, e in zip(trace["start"], trace["end"])]
    covered = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[i]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, n in enumerate(name_of):
        self_s[names[n]] += duration[i] - covered[i]
        calls[names[n]] += 1
    roots = [i for i, p in enumerate(parent) if p < 0]
    if len(roots) != 1:
        raise BenchError(f"op {trace['op']}: expected one cli.main span, got {len(roots)}")
    main_start, main_end = trace["start"][roots[0]] / 1e9, trace["end"][roots[0]] / 1e9
    if not start <= main_start <= main_end <= end:
        raise BenchError(f"op {trace['op']}: span clock does not match the parent's perf_counter")
    counters = trace["counters"]
    emitted = outcome.stdout.count(b"\n") if op.kind == "ap-table" and outcome.exit_code == 0 else 0
    return {
        "startup": main_start - start,
        "exit": end - main_end,
        "self": self_s,
        "calls": calls,
        "counters": counters,
        "caches": trace["caches"],
        "pairs": sum(pairs_scanned(s["bound"], s["coprime"]) for s in trace["searches"]),
        "hits": sum(s["hits"] for s in trace["searches"]),
        "emitted": emitted,
        "missing": trace["missing"],
    }


# ------------------------------------------------------------------ metrics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(mean, percentile, count) of the samples at and beyond the highest
    percentile with 10 samples beyond it."""
    ordered = sorted(values)
    beyond = ordered[max(0, len(ordered) - 11) :]
    return statistics.fmean(beyond), 100.0 * (len(ordered) - len(beyond) + 1) / len(ordered), len(beyond)


def op_means(samples: list[Sample]) -> list[float]:
    """Mean wall time of each op of the list, per worker count, over the rounds."""
    walls = defaultdict(list)
    for s in samples:
        walls[s.op, s.workers].append(s.wall_s)
    return [statistics.fmean(w) for w in walls.values()]


def pair_walls(samples: list[Sample]) -> list[tuple[float, float]]:
    """(t at 1 worker, t at 2 workers) for each op run at both counts."""
    one = {s.op: s.wall_s for s in samples if s.workers == 1}
    return [(one[s.op], s.wall_s) for s in samples if s.workers == 2]


def end_to_end(rounds: list[list[Sample]], setup: list[float]) -> dict:
    walls = [s.wall_s for r in rounds for s in r]
    tail_value, tail_pct, tail_count = tail(walls)
    pairs = [pair for r in rounds for pair in pair_walls(r)]
    round_walls = " ".join(f"{sum(s.wall_s for s in r):.3f}" for r in rounds)
    return {
        "wall_s": statistics.median(sum(s.wall_s for s in r) for r in rounds),
        "op_s.p50": statistics.median(op_means([s for r in rounds for s in r])),
        "op_s.tail": tail_value,
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in r) for r in rounds),
        "setup_s": statistics.median(setup),
        "parallel_eff": sum(t1 for t1, _ in pairs) / (2 * sum(t2 for _, t2 in pairs)),
    }, [
        f"op_s.tail is the mean of the {tail_count} samples from the p{tail_pct:.1f} up, of {len(walls)} op samples",
        f"round wall_s: {round_walls}",
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_layers(samples: list[Sample]) -> dict:
    """Per-layer metrics of one traced round: sums over its ops."""
    layers = [s.layers for s in samples]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    caches: Counter = Counter()
    for layer in layers:
        self_s.update(layer["self"])
        calls.update(layer["calls"])
        counters.update({k: v for k, v in layer["counters"].items() if k != "collision_peak_rss_mb"})
        for prefix, info in layer["caches"].items():
            caches.update({f"{prefix}.{k}": v for k, v in info.items()})
    census = caches["residue_lemmas.census_cache.hits"] + caches["residue_lemmas.census_cache.misses"]
    emitted = sum(layer["emitted"] for layer in layers)
    computed_in_tables = sum(
        layer["counters"].get("records_computed", 0) for layer in layers if layer["emitted"]
    )
    pairs = sum(layer["pairs"] for layer in layers)
    out = {f"{name}.self_s": self_s[name] for name in SELF_TIMED}
    out.update({f"{name}.calls": calls[name] for name in CALL_COUNTED})
    out.update({f"point_count.trace_ap.calls.{m}": counters[f"trace_ap.{m}"] for m in TRACE_METHODS})
    out.update(
        {
            "residue_lemmas.census_cache.hit_ratio": _ratio(caches["residue_lemmas.census_cache.hits"], census),
            "point_count.count_affine_points.field_elems": counters["field_elems"],
            "modmath.quadratic_residues.misses": caches["modmath.quadratic_residues.misses"],
            "cache.bytes_written": counters["cache_bytes_written"],
            "cache.served_ratio": _ratio(emitted - computed_in_tables, emitted),
            "rational_points.pairs_scanned": pairs,
            "rational_points.hit_ratio": _ratio(sum(layer["hits"] for layer in layers), pairs),
            "rational_points.collision_search.peak_rss_mb": max(
                layer["counters"].get("collision_peak_rss_mb", 0.0) for layer in layers
            ),
            "process.startup_s": sum(layer["startup"] for layer in layers),
            "process.exit_s": sum(layer["exit"] for layer in layers),
            "trace.other_self_s": sum(v for k, v in self_s.items() if k not in SELF_TIMED),
        }
    )
    others = sorted(((v, k) for k, v in self_s.items() if k not in SELF_TIMED), reverse=True)[:4]
    return out, others


def per_layer(untraced: list[list[Sample]], traced: list[list[Sample]]) -> tuple[dict, list[str]]:
    by_round, others = zip(*(round_layers(r) for r in traced))
    out = {name: statistics.median(r[name] for r in by_round) for name in by_round[0]}
    out["pool.overhead_s"] = statistics.median(sum(t2 - t1 / 2 for t1, t2 in pair_walls(r)) for r in untraced)
    traced_wall = statistics.median(sum(s.wall_s for s in r) for r in traced)
    untraced_wall = statistics.median(sum(s.wall_s for s in r if s.workers in (None, 1)) for r in untraced)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    listed = sum(out[f"{name}.self_s"] for name in SELF_TIMED)
    notes = [
        f"accounting: listed self {listed:.3f} s + other self {out['trace.other_self_s']:.3f} s"
        f" + startup {out['process.startup_s']:.3f} s + exit {out['process.exit_s']:.3f} s"
        f" = {listed + out['trace.other_self_s'] + out['process.startup_s'] + out['process.exit_s']:.3f} s;"
        f" traced op wall {traced_wall:.3f} s (medians over {len(traced)} traced rounds)",
        "largest other self times (first traced round): " + ", ".join(f"{k} {v:.3f} s" for v, k in others[0]),
    ]
    missing = sorted({m for r in traced for s in r for m in s.layers["missing"]})
    if missing:
        notes.append(f"warning: not found in curvecount, reported as 0: {', '.join(missing)}")
    return out, notes


# ------------------------------------------------------------------ entry point


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def run(spawner: Spawner, workload: str, seed: int, seconds: int, trace: bool, work: Path):
    """(metrics, every sample, report notes, failure counts) of one run."""
    ops = build(workload, seed)
    checker = Checker(seed)
    started = time.perf_counter()
    work.mkdir(parents=True)
    setup = []
    plan = [False] * rounds_for(workload, seconds)
    if trace:
        plan = [False, True] * max(1, len(plan) // 2)
    untraced, traced = [], []
    for number, traced_round in enumerate(plan):
        if number and time.perf_counter() - started > MAX_ELAPSED_S:
            print(f"warning: stopped after {number} rounds at {MAX_ELAPSED_S} s", file=sys.stderr)
            break
        samples = run_round(spawner, ops, checker, work / f"round-{number}", traced_round, number % 2 == 1, setup)
        (traced if traced_round else untraced).append(samples)
    everything = [s for r in untraced + traced for s in r]
    if trace:
        metrics, notes = per_layer(untraced, traced)
    else:
        metrics, notes = end_to_end(untraced, setup)
    failures = Counter(
        (s.verdict.known or "UNEXPECTED", ops[s.op].label(), s.verdict.reason) for s in everything if not s.verdict.ok
    )
    return metrics, everything, notes, failures


def report(workload: str, metrics: dict, units: dict, samples: list[Sample], notes: list[str], failures: Counter) -> dict:
    failed = sum(failures.values())
    unexpected = sum(n for (known, *_), n in failures.items() if known == "UNEXPECTED")
    err = sys.stderr
    print(f"workload {workload}", file=err)
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:>16.6g} {unit}", file=err)
    if units is END_TO_END:
        print(f"  {'failed_frac':48s} {failed / len(samples):>16.6g} ratio ({failed} of {len(samples)} ops failed)", file=err)
    for note in notes:
        print(f"  {note}", file=err)
    for (known, label, reason), n in sorted(failures.items()):
        print(f"  failed x{n} [{known}] {label}: {reason[:160]}", file=err)
    return {
        "correct": unexpected == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped
    # and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "curvecount" / "cli.py").is_file():
        print(f"perfbench: no curvecount sources under {SRC}", file=sys.stderr)
        return 2
    # Exact L-values run to thousands of digits; the checker must parse them.
    sys.set_int_max_str_digits(0)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spawner = Spawner()
    try:
        metrics, samples, notes, failures = run(spawner, args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = report(args.workload, metrics, PER_LAYER if args.trace else END_TO_END, samples, notes, failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
