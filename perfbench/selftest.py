"""Self-test of the benchmark's checker and op generation.

    python3 perfbench/selftest.py

Runs a few small ops through the real CLI of the checkout and confirms
the checker accepts them.  Then it feeds the checker corrupted copies
and confirms each one is flagged: a dropped prime, a flipped a_p, an
off-curve point, a changed collision member, and stdout that differs
across worker counts.  It also confirms that a seed always generates
the same op lists, that another seed changes them, that synthetic
outputs showing the two known seed defects get their labels, and that
the metric names match BENCHMARK.json.  Exits 1 if any case fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

from checker import Checker, Outcome, legendre_trace, primes_upto
from run import END_TO_END, PER_LAYER, ROOT, Spawner, child_env
from workloads import DIGIT_LIMIT, DISCRIMINANT, WORKLOADS, Op, build


def cli(spawner: Spawner, op: Op, scratch, workers: int | None = None) -> Outcome:
    return spawner.run([sys.executable, "-m", "curvecount.cli", *op.argv(workers)], child_env(scratch), scratch)[0]


def edited(outcome: Outcome, edit) -> Outcome:
    """outcome with its JSON Lines rows passed through edit(rows)."""
    rows = [json.loads(line) for line in outcome.stdout.decode().splitlines()]
    edit(rows)
    return Outcome(outcome.exit_code, "".join(json.dumps(r) + "\n" for r in rows).encode(), outcome.stderr)


def flip_sampled_trace(rows: list[dict], checker: Checker) -> None:
    """Negate a_p (keeping a_p = p - n_p) at a prime the checker recounts."""
    traces = {row["p"]: row["a_p"] for row in rows}
    p = next(q for q in checker.sampled_primes(0, sorted(traces)) if traces[q])
    row = next(r for r in rows if r["p"] == p)
    row["a_p"] = -row["a_p"]
    row["n_p"] = p - row["a_p"]


def main() -> int:
    failures = []

    def expect(label: str, flagged: bool, verdict) -> None:
        good = (not verdict.ok) if flagged else verdict.ok
        print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict.reason or 'accepted'}")
        if not good:
            failures.append(label)

    scratch = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    spawner = Spawner()
    try:
        table = Op("ap-table", {"a": -1, "b": 0, "limit": 400}, (1, 2))
        points = Op("find-points", {"d": 6, "bound": 60})
        groups = Op("collisions", {"bound": 150}, (1, 2))
        runs = {op.kind: cli(spawner, op, scratch, op.workers[0] if op.workers else None) for op in (table, points, groups)}
        for index, op in enumerate((table, points, groups)):
            expect(f"real {op.kind} output", False, Checker(0).check(index, op, runs[op.kind]))

        checker = Checker(0)
        dropped = edited(runs["ap-table"], lambda rows: rows.pop(len(rows) // 2))
        expect("dropped prime", True, checker.check(0, table, dropped))
        flipped = edited(runs["ap-table"], lambda rows: flip_sampled_trace(rows, checker))
        expect("flipped a_p", True, Checker(0).check(0, table, flipped))

        def off_curve(rows):
            rows[0]["y"] = "{0.numerator}/{0.denominator}".format(Fraction(rows[0]["y"]) + 1)

        expect("off-curve point", True, Checker(0).check(1, points, edited(runs["find-points"], off_curve)))

        def move_member(rows):
            rows[0]["members"][0][1] += 1

        expect("changed collision member", True, Checker(0).check(2, groups, edited(runs["collisions"], move_member)))
        two = cli(spawner, groups, scratch, 2)
        expect("same stdout at both worker counts", False, Checker.check_pair(runs["collisions"], two))
        expect("stdout differs across worker counts", True, Checker.check_pair(runs["collisions"], edited(two, move_member)))
    finally:
        spawner.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    # The known seed defects, as synthetic outputs, so these cases hold
    # before and after the defects are fixed.
    a, b, limit = 3, 5, 100
    wrong_sign = [p for p in primes_upto(limit) if p != 2 and (4 * a**3 - 27 * b**2) % p]
    rows = "".join(
        json.dumps({"p": p, "n_p": p - legendre_trace(a, b, p), "a_p": legendre_trace(a, b, p), "method": "brute"}) + "\n"
        for p in wrong_sign
    )
    verdict = Checker(0).check(0, Op("ap-table", {"a": a, "b": b, "limit": limit}), Outcome(0, rows.encode(), b""))
    expect("wrong-sign discriminant labelled", True, verdict)
    labelled = verdict.known == DISCRIMINANT
    crash = b"Traceback (most recent call last):\nValueError: Exceeds the limit (4300 digits) for integer string conversion\n"
    verdict = Checker(0).check(0, Op("lseries", {"a": -1, "b": 0, "s": 3, "limit": 3000, "exact": True}), Outcome(1, b"", crash))
    expect("digit-limit crash labelled", True, verdict)
    if not labelled or verdict.known != DIGIT_LIMIT:
        failures.append("known-defect labels")

    for name in WORKLOADS:
        same = build(name, 7) == build(name, 7)
        differs = build(name, 7) != build(name, 8)
        print(f"{'ok  ' if same and differs else 'FAIL'} {name}: same seed same ops, other seed other ops")
        if not (same and differs):
            failures.append(name)

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}
    match = declared == (END_TO_END, PER_LAYER) and [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    print(f"{'ok  ' if match else 'FAIL'} BENCHMARK.json names and units match run.py")
    if not match:
        failures.append("BENCHMARK.json")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
