import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from curvecount import cache, cli, collisions, commands, modmath, point_count, rational_points, residue_lemmas, sweep
from curvecount.errors import CacheInvalidError
from curvecount.lseries import partial_L_exact
from curvecount.point_count import Curve, ap_table
from curvecount.residue_lemmas import MINUS, TwistSpec, np_lemma3
from oracles import primes_by_trial_division


def run(capsys, argv):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


def rebuild_reason(err, path):
    """The reason after the path on the one stderr line of a cache rebuild."""
    prefix = f"curvecount: rebuilding cache {path}: "
    assert err.count("\n") == 1 and err.startswith(prefix), err
    return err[len(prefix):]


# The (3, 5) cache to 13 as write_cache writes it (3 divides the
# discriminant), and a file that holds the same values in other text:
# it is rebuilt.
CANONICAL_13 = "curvecount-cache v1 a=3 b=5 pmin=3 pmax=13\n5,9,-4,brute\n7,6,1,brute\n11,8,3,brute\n13,8,5,brute\n"
FOUND_13 = (
    "curvecount-cache  v1 a=3 b=+5 pmin=03 pmax=0013\n05,9,-4,brute\n7,06,1,brute\n1_1,8,3,brute\r\n"
    "13,8,+5,brute\n\n"
)


def test_profile_example(capsys):
    rc, out = run(capsys, ["profile", "13"])
    assert rc == 0
    assert jsonl(out) == [
        {"p": 13, "minus_one": "QR", "two": "QNR", "epsilon": 5, "epsilon_class": "QNR"}
    ]


def test_profile_without_epsilon(capsys):
    rc, out = run(capsys, ["profile", "7"])
    assert rc == 0
    (record,) = jsonl(out)
    assert record["minus_one"] == "QNR"
    assert record["epsilon"] is None and record["epsilon_class"] is None


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def entry(*argv):
        return subprocess.run([sys.executable, "-m", "curvecount.cli", *argv], env=env, capture_output=True, text=True)

    done = entry("profile", "13")
    assert done.returncode == 0 and done.stderr == ""
    assert jsonl(done.stdout) == [
        {"p": 13, "minus_one": "QR", "two": "QNR", "epsilon": 5, "epsilon_class": "QNR"}
    ]
    done = entry("profile", "15")
    assert done.returncode == 2 and done.stdout == ""
    assert "expected an odd prime" in done.stderr


_AP_TABLE_100K = ["ap-table", "--a", "-1", "--b", "0", "--limit", "100000", "--workers", "1"]


@pytest.mark.parametrize("argv, taken", [
    (["profile", "13"], 0),
    (["ap-table", "--a", "-1", "--b", "0", "--limit", "100"], 0),
    (["lseries", "--a", "-1", "--b", "0", "--s", "1", "--limit", "100", "--format", "csv"], 0),
    (_AP_TABLE_100K, 1 << 16),
    (_AP_TABLE_100K + ["--format", "csv"], 1 << 14),
], ids=["profile", "ap-table", "lseries-csv", "ap-table-100000", "ap-table-100000-csv"])
def test_closed_stdout_ends_quietly(argv, taken):
    # A reader that has gone (`curvecount ... | head -0`) ends the run as
    # SIGPIPE ends a filter, 128 + 13, not as a mismatch, with no traceback.
    # With taken = 0 the reader closes before the run starts; otherwise it
    # reads that many bytes first.  The 9,591 rows of an ap-table to 10^5
    # (550 KB in jsonl, 214 KB in csv) outrun those bytes plus a Linux
    # pipe's 64 KB and stdout's 8 KB buffer, so the reader leaves while
    # _emit's one writelines or writerows call is still writing, after
    # many flushes.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    if not taken:
        os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "curvecount.cli", *argv], env=env, stdout=write_end,
                                stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    if taken:
        with os.fdopen(read_end, "rb") as reader:
            assert len(reader.read(taken)) == taken
    stderr = proc.communicate()[1]
    assert proc.returncode in (141, -signal.SIGPIPE)
    assert stderr == ""


# Every subcommand, with BRUTE_LIMIT_CEILING at 30; the last five exit 2
# with no rows: a missing cache directory, the brute ceiling twice and a
# singular curve twice.
ONE_WRITER_CASES = [
    ("profile 13", 0),
    ("count --a -1 --b 0 --p 13 --plus-one", 0),
    ("ap-table --a -1 --b 0 --limit 50", 0),
    ("ap-table --a 3 --b 5 --limit 30 --cross-validate --plus-one --format csv", 0),
    ("ap-table --a 3 --b 5 --limit 30 --cache c.cache --workers 2", 0),
    ("lemma-verify --lemma 3 --limit 30 --format csv", 0),
    ("lseries --a -1 --b 0 --s 1 --limit 50 --exact", 0),
    ("ratio --a1 -1 --b1 0 --a2 1 --b2 0 --s 1 --limit 50 --format csv", 0),
    ("find-points --d 6 --bound 20", 0),
    ("lemma11 --d 3 --bound 50", 0),
    ("collisions --bound 30 --allow-non-coprime", 0),
    ("lemma8 --limit 50 --format csv", 0),
    ("ap-table --a 3 --b 5 --limit 30 --cache missing/c.cache", 2),
    ("ap-table --a 3 --b 5 --limit 31", 2),
    ("lemma-verify --lemma 4 --limit 31", 2),
    ("lseries --a 0 --b 0 --s 1 --limit 50", 2),
    ("count --a 0 --b 0 --p 5", 2),
]


@pytest.mark.parametrize("command, status", ONE_WRITER_CASES, ids=[c for c, _ in ONE_WRITER_CASES])
def test_main_is_the_one_writer_of_stdout(tmp_path, capsys, monkeypatch, command, status):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(commands, "BRUTE_LIMIT_CEILING", 30)
    emit, written = cli._emit, []

    def one_emit(rows, fmt):
        assert capsys.readouterr().out == ""  # nothing reached stdout before _emit
        emit(rows, fmt)
        written.append(capsys.readouterr().out)

    monkeypatch.setattr(cli, "_emit", one_emit)
    assert cli.main(command.split()) == status
    assert len(written) == 1 and capsys.readouterr().out == ""  # nor after it
    assert (written[0] == "") == (status == 2)


def _emit_oracle(rows, fmt):
    """The row-at-a-time writer _emit replaced: a print a jsonl row, and a
    DictWriter over a dict of cells a csv row, None as "" and lists and
    tuples as JSON."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (list, tuple)):
            return json.dumps(value)
        return value

    if fmt == "csv":
        rows = list(rows)
        fieldnames = list(dict.fromkeys(key for row in rows for key in row))
        if not fieldnames:
            return
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: cell(v) for k, v in row.items()})
    else:
        for row in rows:
            print(json.dumps(row))


def _assert_writes_as_oracle(emit, rows):
    for fmt in ("jsonl", "csv"):
        written = []
        for writer in (emit, _emit_oracle):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                writer((row for row in rows), fmt)  # one pass, as over a handler's generator
            written.append(out.getvalue())
        assert written[0] == written[1], fmt


# The row shapes the subcommands emit: uniform rows with a None cell;
# tuple and nested-tuple cells; rows of mixed keys that end in a summary
# row (lemma-verify's mismatches, with its oracle broken below); bools;
# floats.
EMIT_CASES = [
    "ap-table --a 3 --b 5 --cross-validate --limit 60",  # brute_np is None
    "ap-table --a -1 --b 0 --cross-validate --plus-one --limit 60",
    "profile 7",  # a None cell at the end of the row
    "count --a 3 --b 5 --p 101",
    "lseries --a -1 --b 0 --s 1 --limit 60 --exact",  # skipped_primes, a tuple
    "lseries --a 3 --b 5 --s 0.5 --limit 60",
    "collisions --bound 60 --allow-non-coprime --workers 1",  # members, a tuple of tuples
    "lemma-verify --lemma 1 --limit 30 --workers 1",
    "lemma11 --d 6 --bound 50",  # hits, then a summary with bools
    "ratio --a1 -1 --b1 0 --a2 1 --b2 0 --s 1 --limit 60",  # float factors, then a summary
    "find-points --d 6 --bound 20",
    "lemma8 --limit 50",
]


@pytest.mark.parametrize("command", EMIT_CASES)
def test_emit_writes_the_bytes_of_the_row_at_a_time_writer(monkeypatch, command):
    monkeypatch.setattr(commands, "BRUTE_LIMIT_CEILING", 100)
    monkeypatch.setattr(residue_lemmas, "_brute_counts", lambda p, b, a_values: [p + 2 for _ in a_values])
    emit, emitted = cli._emit, []
    monkeypatch.setattr(cli, "_emit", lambda rows, fmt: emitted.append(list(rows)))
    cli.main(command.split())
    (rows,) = emitted
    assert rows
    _assert_writes_as_oracle(emit, rows)


@pytest.mark.parametrize("rows", [
    [],
    [{}],
    [{"only": None}],  # a lone empty cell: csv quotes it, so the line is not blank
    [{"a": 1, "b": None}, {"b": (2, (3, 4)), "c": [True, 0.1]}, {"c": "x,y", "a": 1e300}],
    [{"flag": False, "x": float("nan"), "y": -0.0}, {"text": 'a "quoted"\nline', "unicode": "π"}],
], ids=["empty", "empty-row", "lone-none", "mixed-keys", "bools-floats-text"])
def test_emit_writes_the_bytes_of_the_row_at_a_time_writer_at_the_edges(rows):
    _assert_writes_as_oracle(cli._emit, rows)


@pytest.mark.parametrize("flags", [[], ["--cross-validate"], ["--plus-one"], ["--cross-validate", "--plus-one"]],
                         ids=["plain", "cross-validate", "plus-one", "both"])
@pytest.mark.parametrize("curve", [["--a", "-1", "--b", "0"], ["--a", "3", "--b", "5"]], ids=["b0", "b5"])
def test_ap_table_rows_share_one_key_order(tmp_path, capsys, curve, flags):
    # The csv header is the union of every row's keys, so a writer that
    # streamed rows could take it from the first row only if every row of
    # one call has that row's keys in its order.  On (-1, 0) the rows mix
    # lemma 1 and Gauss traces; on (3, 5), bar --cross-validate, which
    # reads no cache, they mix cached brute counts with fresh ones.
    argv = ["ap-table", *curve, *flags, "--workers", "1", "--cache", str(tmp_path / "c.cache"), "--limit"]
    run(capsys, argv + ["200"])
    rc, out = run(capsys, argv + ["400"])
    rows = jsonl(out)
    assert rc == 0 and len(rows) > 70
    assert {tuple(row) for row in rows} == {tuple(rows[0])}


def test_jsonl_ap_table_holds_one_row_at_a_time(monkeypatch):
    # Both formats hold the records; csv also holds every row, for the
    # union of their keys in its header, while jsonl writes each row as it
    # is built.  At this limit (17,983 primes) jsonl peaked at 3.2 MB
    # under tracemalloc and csv at 6.9 MB; with every row held, jsonl
    # peaked at 6.9 MB too.
    import tracemalloc

    argv = ["ap-table", "--a", "-1", "--b", "0", "--workers", "1", "--limit"]
    peaks = {}
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for fmt in ("jsonl", "csv"):
            assert cli.main(argv + ["1000", "--format", fmt]) == 0  # imports what the format needs
            tracemalloc.start()
            try:
                assert cli.main(argv + ["200000", "--format", fmt]) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peaks["jsonl"] < 0.7 * peaks["csv"], peaks


def _modules_loaded_after(code, names):
    """The subset of names in sys.modules after a fresh interpreter runs code."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(set({names!r}) & set(sys.modules))))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# Each subcommand's handler module, and a call of it that exits with the given status.
_COMMAND_CALLS = {
    "profile": (["profile", "13"], 0),
    "count": (["count", "--a", "3", "--b", "5", "--p", "101"], 0),
    "ap_table": (["ap-table", "--a", "-1", "--b", "0", "--limit", "200", "--workers", "1"], 0),
    "lemma_verify": (["lemma-verify", "--lemma", "3", "--limit", "50", "--workers", "1"], 0),
    "lseries": (["lseries", "--a", "3", "--b", "5", "--s", "1", "--limit", "200000"], 2),
    "ratio": (["ratio", "--a1", "-1", "--b1", "0", "--a2", "1", "--b2", "0", "--s", "1", "--limit", "200"], 0),
    "find_points": (["find-points", "--d", "6", "--bound", "30"], 0),
    "lemma11": (["lemma11", "--d", "3", "--bound", "30"], 0),
    "collisions": (["collisions", "--bound", "30", "--workers", "1"], 0),
    "lemma8": (["lemma8", "--limit", "50"], 0),
}
_COMMAND_MODULES = [f"curvecount.commands.{name}" for name in _COMMAND_CALLS]


def test_parser_loads_no_library_module():
    heavy = ["curvecount.cache", "curvecount.collisions", "curvecount.lseries", "curvecount.rational_points",
             "curvecount.residue_lemmas", "concurrent.futures", "fractions", "dataclasses", *_COMMAND_MODULES]
    assert _modules_loaded_after("import curvecount.cli as cli\ncli.build_parser()", heavy) == []


@pytest.mark.parametrize("name", _COMMAND_CALLS)
def test_module_entry_loads_only_its_own_handler(name):
    # Run as `python -m curvecount.cli` runs it, as __main__: a handler
    # module that imported curvecount.cli would compile it a second time.
    argv, status = _COMMAND_CALLS[name]
    code = ("import runpy, sys\n"
            f"sys.argv = ['curvecount', *{argv!r}]\n"
            "try:\n    runpy.run_module('curvecount.cli', run_name='__main__')\n"
            f"except SystemExit as exc:\n    assert exc.code == {status}, exc.code\n"
            "else:\n    raise AssertionError('no exit status')")
    loaded = _modules_loaded_after(code, ["curvecount.cli", *_COMMAND_MODULES])
    assert loaded == [f"curvecount.commands.{name}"]


def test_sweeps_fork_only_when_the_rest_pays():
    # A batch of the 783 closed-form traces takes well under a millisecond,
    # so the rest never projects past sweep.BREAK_EVEN and nothing forks;
    # a batch of a collision search to bound 2000 (about half a second in
    # all) projects the rest past it, so the search fans out to both
    # workers.  No call loads concurrent.futures.
    def assert_fan_outs(argv, processes):
        code = ("import curvecount.cli as cli, curvecount.sweep as sweep\n"
                "started, fan_out = [], sweep._fan_out\n"
                "sweep._fan_out = lambda fn, batches, n: started.append(n) or fan_out(fn, batches, n)\n"
                f"assert cli.main({argv!r}) == 0\nassert started == {processes!r}, started")
        assert _modules_loaded_after(code, ["concurrent.futures"]) == []

    assert_fan_outs(["ap-table", "--a", "1369", "--b", "0", "--limit", "6020", "--workers", "2"], [])
    assert_fan_outs(["collisions", "--bound", "2000", "--workers", "2"], [2])


def test_workers_default_to_the_cpus_this_process_may_use(monkeypatch):
    def default_workers():
        return cli.build_parser().parse_args(["collisions", "--bound", "10"]).workers

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(200)), raising=False)
    assert default_workers() == cli.WORKERS_CEILING == 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert default_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


# What the counting calls may load: no call loads residue_lemmas, the
# home of the closed forms, since point_count imports nothing from it.
_LIBRARY = ["curvecount.cache", "curvecount.lseries", "curvecount.point_count", "curvecount.rational_points",
            "curvecount.residue_lemmas", "concurrent.futures", "fractions"]


def test_ap_table_at_one_worker_loads_only_its_modules():
    code = ("import curvecount.cli as cli\n"
            "assert cli.main(['ap-table', '--a', '-1', '--b', '0', '--limit', '200', '--workers', '1']) == 0")
    assert _modules_loaded_after(code, _LIBRARY) == ["curvecount.cache", "curvecount.point_count"]


@pytest.mark.parametrize(
    "argv, used",
    [
        (["lseries", "--a", "-1", "--b", "0", "--s", "1", "--limit", "200"], ["lseries", "point_count"]),
        (["ratio", "--a1", "-1", "--b1", "0", "--a2", "1", "--b2", "0", "--s", "1", "--limit", "200"],
         ["lseries", "point_count"]),
        (["count", "--a", "3", "--b", "5", "--p", "101"], ["point_count"]),
    ],
    ids=["lseries", "ratio", "count"],
)
def test_counting_commands_load_no_identities(argv, used):
    code = f"import curvecount.cli as cli\nassert cli.main({argv!r}) == 0"
    assert _modules_loaded_after(code, _LIBRARY) == [f"curvecount.{name}" for name in used]


def test_lemma_choices_are_the_identities_residue_lemmas_sweeps(capsys):
    parser = cli.build_parser()
    accepted = []
    for lemma in range(-1, 10):
        try:
            parser.parse_args(["lemma-verify", "--lemma", str(lemma), "--limit", "3"])
        except SystemExit:
            continue
        accepted.append(lemma)
    assert "invalid choice" in capsys.readouterr().err
    assert accepted == sorted(residue_lemmas.LEMMAS) == [1, 2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize(
    "argv",
    [
        ["find-points", "--d", "6", "--bound", "30"],
        ["find-points", "--d", "3", "--bound", "30"],
        ["lemma11", "--d", "3", "--bound", "30"],
        ["collisions", "--bound", "30", "--workers", "1"],
    ],
    ids=["find-points", "find-points-no-pair", "lemma11", "collisions"],
)
def test_rational_point_commands_load_no_counting_module(argv):
    # The collision search is integer arithmetic in its own module, and of
    # the three searches only it fans out, so the Fraction ones load no sweep.
    # Their pair search is integer arithmetic too, so fractions and decimal
    # load only once a point is built: lemma11 and a search that finds no
    # pair (d = 3) load neither.
    code = f"import curvecount.cli as cli\nassert cli.main({argv!r}) == 0"
    counting = ["curvecount.point_count", "curvecount.residue_lemmas"]
    if argv[0] == "collisions":
        home, others = "curvecount.collisions", ["fractions", "decimal", "curvecount.rational_points"]
    elif argv[0] == "lemma11" or argv[2] == "3":
        home, others = "curvecount.rational_points", ["curvecount.sweep", "fractions", "decimal"]
    else:
        home, others = "curvecount.rational_points", ["curvecount.sweep"]
    assert _modules_loaded_after(code, counting + others + [home]) == [home]


# Records are namedtuples: dataclasses would pull in inspect, ast and dis
# at every call.  The float products and the table print no Fraction.
_FLOAT_CALLS = {
    "ap-table": ["ap-table", "--a", "-1", "--b", "0", "--limit", "200", "--workers", "1"],
    "lseries": ["lseries", "--a", "-1", "--b", "0", "--s", "1", "--limit", "200"],
    "ratio": ["ratio", "--a1", "-1", "--b1", "0", "--a2", "1", "--b2", "0", "--s", "1", "--limit", "200"],
}


@pytest.mark.parametrize(
    "argv",
    [
        *_FLOAT_CALLS.values(),
        ["lemma-verify", "--lemma", "2", "--limit", "200", "--workers", "1"],
        ["lemma-verify", "--lemma", "5", "--limit", "200", "--workers", "1"],
        ["find-points", "--d", "6", "--bound", "30"],
        ["lemma11", "--d", "3", "--bound", "30"],
        ["collisions", "--bound", "30", "--workers", "1"],
    ],
    ids=lambda argv: f"lemma-verify-{argv[2]}" if argv[0] == "lemma-verify" else argv[0],
)
def test_commands_load_no_dataclasses(argv):
    code = f"import curvecount.cli as cli\nassert cli.main({argv!r}) in (0, 1)"
    assert _modules_loaded_after(code, ["dataclasses", "inspect"]) == []


@pytest.mark.parametrize("argv", _FLOAT_CALLS.values(), ids=_FLOAT_CALLS)
def test_float_commands_load_no_fractions(argv):
    code = f"import curvecount.cli as cli\nassert cli.main({argv!r}) == 0"
    assert _modules_loaded_after(code, ["fractions", "decimal"]) == []


def test_profile_usage_errors(capsys):
    assert cli.main(["profile", "12"]) == 2
    assert cli.main(["profile", "2"]) == 2


def test_primes_past_what_is_prime_decides_exit_2(capsys):
    # psi_12 passes Miller-Rabin to the first 12 prime bases; psi_13 to the first 13.
    psi_12, psi_13 = "318665857834031151167461", "3317044064679887385961981"
    for argv in (["profile", psi_12], ["count", "--a", "-1", "--b", "0", "--p", psi_12]):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"expected an odd prime, got {psi_12}\n" in captured.err
    refusal = f"primality is decided only below {psi_13}, got {psi_13}\n"
    for name, argv, message in (
        ("p", ["profile", psi_13], refusal),
        ("--p", ["count", "--a", "-1", "--b", "0", "--p", psi_13], refusal),
        # lemma11's --d ranges over the d that is_prime decides
        ("--d", ["lemma11", "--d", psi_13, "--bound", "10"], f"must be in [1, {int(psi_13) - 1}], got {psi_13}\n"),
    ):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.endswith(f"error: argument {name}: {message}")


def test_count_example(capsys):
    rc, out = run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "13"])
    assert rc == 0
    assert jsonl(out) == [{"p": 13, "n_p": 7, "a_p": 6}]


def test_count_brute_matches_auto(capsys):
    _, auto = run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "61"])
    _, brute = run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "61", "--method", "brute"])
    assert auto == brute


def test_count_plus_one_display(capsys):
    rc, out = run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "13", "--plus-one"])
    assert rc == 0
    assert jsonl(out) == [{"p": 13, "n_p": 8, "a_p": 6}]


def test_count_usage_errors(capsys):
    assert cli.main(["count", "--a", "-1", "--b", "0", "--p", "12"]) == 2
    # 3 divides the discriminant of y^2 = x^3 - 81x
    assert cli.main(["count", "--a", "-9", "--b", "0", "--p", "3"]) == 2


def test_count_refuses_a_brute_count_above_its_ceiling(capsys, monkeypatch):
    # b = 0 under auto is O(log p), so it takes any odd prime.
    rc, out = run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "999999999989"])
    assert rc == 0 and jsonl(out) == [{"p": 999999999989, "n_p": 1000000943079, "a_p": -943090}]

    def no_table(p):
        raise AssertionError(f"residue table mod {p}")

    monkeypatch.setattr(point_count, "_root_counts", no_table)
    for argv in (["--a", "3", "--b", "5"], ["--a", "-1", "--b", "0", "--method", "brute"]):
        rc = cli.main(["count", *argv, "--p", "1000000007"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "curvecount: error: a brute-force count needs p <= 10000000, got 1000000007\n"
    monkeypatch.undo()
    assert commands.BRUTE_P_CEILING == 10**7
    monkeypatch.setattr(commands, "BRUTE_P_CEILING", 101)
    assert run(capsys, ["count", "--a", "3", "--b", "5", "--p", "101"])[0] == 0
    assert run(capsys, ["count", "--a", "3", "--b", "5", "--p", "103"]) == (2, "")
    assert run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "101", "--method", "brute"])[0] == 0
    assert run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "103", "--method", "brute"]) == (2, "")
    assert run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "103"])[0] == 0
    assert run(capsys, ["count", "--a", "-1", "--b", "0", "--p", "109"])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["ap-table", "--a", "3", "--b", "5"],
        ["ap-table", "--a", "-1", "--b", "0", "--cross-validate"],
        ["lseries", "--a", "3", "--b", "5", "--s", "1"],
        ["lseries", "--a", "3", "--b", "5", "--s", "1", "--exact"],
        ["ratio", "--a1", "3", "--b1", "5", "--a2", "-1", "--b2", "0", "--s", "1"],
        ["ratio", "--a1", "-1", "--b1", "0", "--a2", "3", "--b2", "5", "--s", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_brute_sweep_refuses_a_limit_above_its_ceiling(capsys, monkeypatch, argv):
    # Every prime of a b != 0 curve (or of --cross-validate) is an O(p)
    # count, so such a sweep stops at BRUTE_LIMIT_CEILING, checked before any sieve.
    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit}")

    monkeypatch.setattr(point_count, "sieve_primes", no_sieve)
    rc = cli.main(argv + ["--limit", "100000000"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("curvecount: error: a sweep that brute-counts every prime needs "
                            "--limit <= 100000, got 100000000\n")
    monkeypatch.undo()
    assert commands.BRUTE_LIMIT_CEILING == 10**5
    monkeypatch.setattr(commands, "BRUTE_LIMIT_CEILING", 30)
    assert run(capsys, argv + ["--limit", "30"])[0] == 0
    assert run(capsys, argv + ["--limit", "31"]) == (2, "")


def test_closed_form_sweeps_are_not_held_to_the_brute_ceiling(capsys, monkeypatch):
    # Only a sweep that brute-counts is held to BRUTE_LIMIT_CEILING.
    monkeypatch.setattr(commands, "BRUTE_LIMIT_CEILING", 30)
    for argv in (["ap-table", "--a", "-1", "--b", "0"], ["lseries", "--a", "-1", "--b", "0", "--s", "1"],
                 ["ratio", "--a1", "-1", "--b1", "0", "--a2", "1", "--b2", "0", "--s", "1"],
                 ["lemma-verify", "--lemma", "5", "--workers", "1"]):
        assert run(capsys, argv + ["--limit", "1000"])[0] == 0


@pytest.mark.parametrize("lemma", [1, 2, 3, 4, 6, 7])
def test_lemma_sweep_refuses_a_limit_above_the_brute_ceiling(capsys, monkeypatch, lemma):
    # Every lemma but 5 does O(p) work at each prime, so its sweep stops at
    # BRUTE_LIMIT_CEILING too, checked before any sieve.
    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit}")

    monkeypatch.setattr(residue_lemmas, "sieve_primes", no_sieve)
    argv = ["lemma-verify", "--lemma", str(lemma), "--workers", "1"]
    rc = cli.main(argv + ["--limit", "100000000"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("curvecount: error: a sweep that brute-counts every prime needs "
                            "--limit <= 100000, got 100000000\n")
    monkeypatch.undo()
    monkeypatch.setattr(commands, "BRUTE_LIMIT_CEILING", 30)
    assert run(capsys, argv + ["--limit", "30"])[0] == 0
    assert run(capsys, argv + ["--limit", "31"]) == (2, "")


def test_unknown_flag_and_subcommand_rejected(capsys):
    assert cli.main(["count", "--a", "-1", "--b", "0", "--p", "13", "--frobnicate"]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2


def test_ap_table_cache_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "brute.cache")
    args = ["ap-table", "--a", "3", "--b", "5", "--limit", "60", "--cache", path, "--workers", "1"]
    rc, fresh = run(capsys, args)
    assert rc == 0
    first_bytes = open(path, "rb").read()
    first = os.stat(path)
    rc, cached = run(capsys, args)
    assert rc == 0
    assert cached == fresh
    assert open(path, "rb").read() == first_bytes
    # a warm run does not rewrite the file
    assert (os.stat(path).st_ino, os.stat(path).st_mtime_ns) == (first.st_ino, first.st_mtime_ns)


def test_ap_table_cache_extends(tmp_path, capsys):
    path = str(tmp_path / "brute.cache")
    run(capsys, ["ap-table", "--a", "3", "--b", "5", "--limit", "40", "--cache", path])
    rc, out = run(capsys, ["ap-table", "--a", "3", "--b", "5", "--limit", "80", "--cache", path])
    assert rc == 0
    pmax, records = cache.read_cache(path, Curve(3, 5))
    assert pmax == 80
    assert records == ap_table(Curve(3, 5), 80)
    assert [r.p for r in records] == [r["p"] for r in jsonl(out)]
    # a shrunk limit serves from cache without rewriting the file
    extended = os.stat(path)
    rc, out = run(capsys, ["ap-table", "--a", "3", "--b", "5", "--limit", "20", "--cache", path])
    assert [r["p"] for r in jsonl(out)] == [5, 7, 11, 13, 17, 19]
    assert cache.read_cache(path, Curve(3, 5))[0] == 80
    assert (os.stat(path).st_ino, os.stat(path).st_mtime_ns) == (extended.st_ino, extended.st_mtime_ns)


def test_ap_table_cross_validate_neither_reads_nor_writes_cache(tmp_path, capsys):
    # Two runs ignore --cache: --cross-validate, which recounts every prime,
    # and a b = 0 curve, whose closed forms cost less than reading them
    # back.  Neither reads, creates or writes the file, nor says anything.
    # Each is given a file the cache would serve and a tampered one.
    for curve, flags, tamper in (
        (Curve(3, 5), ["--cross-validate"], ("\n7,6,1,brute\n", "\n")),
        (Curve(-1, 0), [], ("\n7,7,0,lemma1\n", "\n7,5,2,lemma1\n")),
    ):
        valid = tmp_path / "valid.cache"
        cache.write_cache(str(valid), curve, 60, ap_table(curve, 60))
        tampered = tmp_path / "tampered.cache"
        tampered.write_text(valid.read_text().replace(*tamper))
        absent, directory = tmp_path / "absent.cache", tmp_path / "dir"
        directory.mkdir(exist_ok=True)
        files = {path: (path.read_bytes(), os.stat(path).st_mtime_ns) for path in (valid, tampered)}
        for workers in ("1", "2"):
            for fmt in ("jsonl", "csv"):
                args = ["ap-table", "--a", str(curve.a), "--b", str(curve.b), "--limit", "60", *flags,
                        "--workers", workers, "--format", fmt]
                assert cli.main(args) == 0
                uncached = capsys.readouterr().out
                for path in (valid, tampered, absent, directory):
                    assert cli.main(args + ["--cache", str(path)]) == 0
                    assert capsys.readouterr() == (uncached, "")
        assert not absent.exists() and os.listdir(directory) == []
        assert {path: (path.read_bytes(), os.stat(path).st_mtime_ns) for path in files} == files


def test_ap_table_tampered_cache_recomputes(tmp_path, capsys):
    path = str(tmp_path / "brute.cache")
    args = ["ap-table", "--a", "3", "--b", "5", "--limit", "60", "--cache", path]
    _, fresh = run(capsys, args)
    lines = open(path).read().splitlines()
    lines[0] = lines[0].replace("v1", "v9")
    open(path, "w").write("\n".join(lines) + "\n")
    rc, again = run(capsys, args)
    assert rc == 0
    assert again == fresh
    # the bad file was overwritten with a valid one
    assert cache.read_cache(path, Curve(3, 5))[0] == 60


def test_ap_table_incomplete_cache_recomputes(tmp_path, capsys):
    path = tmp_path / "brute.cache"
    args = ["ap-table", "--a", "3", "--b", "5", "--limit", "60", "--cache", str(path)]
    _, cold = run(capsys, args)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("7,")) + "\n")
    rc, again = run(capsys, args)
    assert rc == 0
    assert again == cold


def test_ap_table_rebuild_says_why(tmp_path, capsys):
    path = tmp_path / "brute.cache"
    args = ["ap-table", "--a", "3", "--b", "5", "--limit", "60"]
    _, cold = run(capsys, args)
    run(capsys, args + ["--cache", str(path)])
    text = path.read_text()
    for edited, reason in (
        (text.replace("\n7,6,1,brute\n", "\n7,5,1,brute\n"),
         "'7,5,1,brute\\n' is not what write_cache writes: '7,6,1,brute\\n'\n"),
        (text.replace("\n7,6,1,brute\n", "\n7,1,6,brute\n"), "'7,1,6,brute' breaks the Hasse bound at p = 7\n"),
        # Each line's own p is read, so a dropped, doubled or moved line
        # names the first prime out of place.
        (text.replace("\n7,6,1,brute\n", "\n"), "'11,8,3,brute' stands where p = 7's record belongs\n"),
        (text.replace("\n59,65,-6,brute\n", "\n"), "no record for p = 59\n"),
        (text + "59,65,-6,brute\n", "'59,65,-6,brute' is past the last good odd prime <= 60\n"),
        (text.replace("\n7,6,1,brute\n", "\n\n7,6,1,brute\n"), "'' is not a cache line\n"),
    ):
        path.write_text(edited)
        rc = cli.main(args + ["--cache", str(path)])
        out, err = capsys.readouterr()
        assert rc == 0 and out == cold
        assert rebuild_reason(err, path) == reason
        assert path.read_text() == text


def test_cache_trusts_brute_records_as_read(tmp_path):
    # Recounting every brute record would cost what the cache saves, so
    # a brute a_p in the Hasse range is served as written.
    path = tmp_path / "b.cache"
    records = ap_table(Curve(3, 5), 30)
    cache.write_cache(str(path), Curve(3, 5), 30, records)
    assert records[0] == (5, 9, -4, "brute", None)
    path.write_text(path.read_text().replace("\n5,9,-4,brute\n", "\n5,5,0,brute\n"))
    assert cache.read_cache(str(path), Curve(3, 5)) == (30, [records[0]._replace(n_p=5, a_p=0)] + records[1:])


def test_cache_single_line_edits_on_both_curve_kinds(tmp_path):
    # Every one-line edit of a canonical file is rebuilt but one: an a_p
    # moved within the Hasse range, n_p = p - a_p to match, is served.  The
    # two kinds are a small discriminant (3 and 29 bad) and a large one.
    path = tmp_path / "edit.cache"
    for curve in (Curve(3, 5), Curve(1000, 1)):
        records = ap_table(curve, 60)
        cache.write_cache(str(path), curve, 60, records)
        header, *rows = path.read_text().splitlines(True)

        def read(header, rows):
            path.write_bytes((header + "".join(rows)).encode())
            return cache.read_cache(str(path), curve)

        assert read(header, rows) == (60, records)
        assert read(header.replace("pmax=60", "pmax=59"), rows) == (59, records)  # no good prime in (59, 60]
        rebuilt = [(header.replace("pmax=60", "pmax=61"), rows), (header, rows[:-1] + [rows[-1].rstrip("\n")])]
        served = 0
        for i, r in enumerate(records):
            rebuilt.append((header, rows[:i] + rows[i + 1:]))
            rebuilt.append((header, rows[:i] + [rows[i]] + rows[i:]))
            if i + 1 < len(rows):
                rebuilt.append((header, rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2:]))
            for method in ("brute", "lemma1", "gauss"):
                if method != r.method:
                    rebuilt.append((header, rows[:i] + [f"{r.p},{r.n_p},{r.a_p},{method}\n"] + rows[i + 1:]))
            for a_p in (r.a_p - 2, r.a_p + 2):
                rebuilt.append((header, rows[:i] + [f"{r.p},{r.n_p},{a_p},{r.method}\n"] + rows[i + 1:]))
                moved = r._replace(n_p=r.p - a_p, a_p=a_p)
                edited = rows[:i] + [f"{r.p},{moved.n_p},{a_p},{r.method}\n"] + rows[i + 1:]
                if a_p * a_p < 4 * r.p:
                    assert read(header, edited) == (60, records[:i] + [moved] + records[i + 1:])
                    served += 1
                else:
                    rebuilt.append((header, edited))
        for edit in rebuilt:
            with pytest.raises(CacheInvalidError):
                read(*edit)
        assert served > 0


def test_ap_table_cache_pmin_above_3_rebuilt(tmp_path, capsys):
    # A header claiming the sweep began at 31 once served 7 of the 14 rows.
    path = tmp_path / "late.cache"
    args = ["ap-table", "--a", "3", "--b", "5", "--limit", "60", "--workers", "1"]
    _, cold = run(capsys, args)
    rows = [f"{r['p']},{r['n_p']},{r['a_p']},{r['method']}" for r in jsonl(cold) if r["p"] >= 31]
    path.write_text("\n".join(["curvecount-cache v1 a=3 b=5 pmin=31 pmax=60"] + rows) + "\n")
    rc = cli.main(args + ["--cache", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0 and out == cold and len(jsonl(out)) == 14
    # The header is checked before any record line is read.
    assert rebuild_reason(err, path) == ("'curvecount-cache v1 a=3 b=5 pmin=31 pmax=60\\n' is not what write_cache "
                                         "writes: 'curvecount-cache v1 a=3 b=5 pmin=3 pmax=60\\n'\n")
    assert path.read_text().startswith("curvecount-cache v1 a=3 b=5 pmin=3 pmax=60\n")


def test_ap_table_rebuilds_cache_write_cache_would_not_write(tmp_path, capsys):
    path, fresh = tmp_path / "found.cache", tmp_path / "fresh.cache"
    args = ["ap-table", "--a", "3", "--b", "5", "--limit", "13"]
    _, cold = run(capsys, args)
    path.write_bytes(FOUND_13.encode())
    rc = cli.main(args + ["--cache", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0 and out == cold
    found, canonical = "'curvecount-cache  v1 a=3 b=+5 pmin=03 pmax=0013\\n'", "'curvecount-cache v1 a=3 b=5 pmin=3 pmax=13\\n'"
    assert rebuild_reason(err, path) == f"{found} is not what write_cache writes: {canonical}\n"
    cache.write_cache(str(fresh), Curve(3, 5), 13, ap_table(Curve(3, 5), 13))
    assert path.read_bytes() == fresh.read_bytes() == CANONICAL_13.encode()


def test_ap_table_rebuilds_cache_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.cache"
    args = ["ap-table", "--a", "3", "--b", "5", "--limit", "60"]
    _, cold = run(capsys, args)
    path.write_bytes(b"\xff\xfe\x00\x00" + bytes(range(256)))
    rc = cli.main(args + ["--cache", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0 and out == cold
    assert rebuild_reason(err, path).startswith("not UTF-8 text")
    assert cache.read_cache(str(path), Curve(3, 5))[0] == 60


def _no_sweep(*args):
    raise AssertionError("a sweep ran")


@pytest.mark.parametrize("name", [".", "missing/c.cache"])
def test_ap_table_unusable_cache_path_exits_2_before_any_sweep(tmp_path, capsys, monkeypatch, name):
    # "." is a directory, so reading it fails; a file in a missing
    # directory could not be written once the sweep was done.
    monkeypatch.setattr(sweep, "map_chunks", _no_sweep)
    monkeypatch.setattr(point_count, "sieve_primes", _no_sweep)  # the cache is read before the sieve
    path = os.path.join(str(tmp_path), name)
    rc = cli.main(["ap-table", "--a", "3", "--b", "5", "--limit", "60", "--cache", path])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"curvecount: error: cache {path}: ")
    assert os.listdir(tmp_path) == []


def test_ap_table_cache_write_failure_exits_2(tmp_path, capsys, monkeypatch):
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cache, "write_cache", full_disk)
    path = str(tmp_path / "c.cache")
    rc = cli.main(["ap-table", "--a", "3", "--b", "5", "--limit", "60", "--cache", path])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"curvecount: error: cache {path}: No space left on device\n"


def test_ap_table_worker_invariance(tmp_path, capsys, fan_outs_forced):
    # One closed-form curve and one brute-force curve, each cross-validated.
    for args in (["ap-table", "--a", "1", "--b", "0", "--limit", "300", "--cross-validate"],
                 ["ap-table", "--a", "3", "--b", "5", "--limit", "300", "--cross-validate"]):
        _, one = run(capsys, args + ["--workers", "1"])
        _, three = run(capsys, args + ["--workers", "3"])
        assert one == three
    assert fan_outs_forced == [3, 3]


def test_ap_table_cross_validate(capsys):
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "150", "--cross-validate", "--workers", "1"])
    assert rc == 0
    records = jsonl(out)
    assert all(r["brute_np"] == r["n_p"] for r in records)


def test_ap_table_plus_one_leaves_cache_raw(tmp_path, capsys):
    path = str(tmp_path / "plus.cache")
    rc, out = run(capsys, ["ap-table", "--a", "3", "--b", "5", "--limit", "20", "--cache", path, "--plus-one"])
    assert rc == 0
    shown = {r["p"]: r["n_p"] for r in jsonl(out)}
    _, records = cache.read_cache(path, Curve(3, 5))
    assert {r.p: r.n_p for r in records} == {p: n - 1 for p, n in shown.items()}


def test_ap_table_plus_one_shifts_brute_np(capsys):
    args = ["ap-table", "--a", "2", "--b", "0", "--limit", "30", "--cross-validate", "--workers", "1"]
    _, raw = run(capsys, args)
    rc, out = run(capsys, args + ["--plus-one"])
    assert rc == 0
    assert jsonl(out)[0] == {"p": 3, "n_p": 4, "a_p": 0, "method": "lemma1", "brute_np": 4}
    assert jsonl(out) == [{**r, "n_p": r["n_p"] + 1, "brute_np": r["brute_np"] + 1} for r in jsonl(raw)]


def test_ap_table_empty_range(tmp_path, capsys):
    path = str(tmp_path / "empty.cache")
    rc, out = run(capsys, ["ap-table", "--a", "3", "--b", "5", "--limit", "2", "--cache", path])
    assert rc == 0
    assert out == ""
    assert cache.read_cache(path, Curve(3, 5)) == (2, [])


def test_ap_table_csv(capsys):
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "13", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "p,n_p,a_p,method"
    assert lines[1] == "3,3,0,lemma1"
    assert lines[5] == "13,7,6,gauss"
    assert 13 - np_lemma3(TwistSpec(1, MINUS), 13) == 6


def test_cache_env_var_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
    rc, _ = run(capsys, ["ap-table", "--a", "3", "--b", "5", "--limit", "30", "--cache", "rel.cache"])
    assert rc == 0
    assert (tmp_path / "rel.cache").exists()
    assert not os.path.exists("rel.cache")


def test_cache_thousand_records_byte_identical(tmp_path):
    records = ap_table(Curve(3, 5), 8000)
    assert len(records) > 1000
    first, second = str(tmp_path / "a.cache"), str(tmp_path / "b.cache")
    cache.write_cache(first, Curve(3, 5), 8000, records)
    _, reread = cache.read_cache(first, Curve(3, 5))
    assert reread == records
    cache.write_cache(second, Curve(3, 5), 8000, reread)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_cache_rejects_wrong_curve_and_garbage(tmp_path):
    path = str(tmp_path / "c.cache")
    cache.write_cache(path, Curve(3, 5), 50, ap_table(Curve(3, 5), 50))
    with pytest.raises(CacheInvalidError):
        cache.read_cache(path, Curve(3, 7))
    for bad in (
        "curvecount-cache v2 a=3 b=5 pmin=3 pmax=50\n",
        "other-tool v1 a=3 b=5 pmin=3 pmax=50\n",
        "curvecount-cache v1 a=3 b=5 pmin=3\n",
        "curvecount-cache v1 a=x b=5 pmin=3 pmax=50\n",
        "",
        FOUND_13,
        CANONICAL_13.replace("cache v1", "cache  v1"),
        CANONICAL_13.replace("b=5", "b=+5"),
        CANONICAL_13.replace("pmin=3", "pmin=03"),
        CANONICAL_13.replace("pmax=13", "pmax=0013"),
    ):
        open(path, "w").write(bad)
        with pytest.raises(CacheInvalidError):
            cache.read_cache(path, Curve(3, 5))
    with pytest.raises(FileNotFoundError):
        cache.read_cache(str(tmp_path / "missing.cache"), Curve(3, 5))


def test_cache_refuses_a_b0_curve(tmp_path):
    # A b = 0 curve's traces are closed forms, which ap-table never caches:
    # asking read_cache for one is the caller's error, whatever the file.
    path = tmp_path / "closed.cache"
    cache.write_cache(str(path), Curve(-1, 0), 13, ap_table(Curve(-1, 0), 13))
    for name in (path, tmp_path / "missing.cache"):
        with pytest.raises(ValueError) as raised:
            cache.read_cache(str(name), Curve(-1, 0))
        assert not isinstance(raised.value, CacheInvalidError)


def test_cache_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "f.cache"
    cache.write_cache(str(path), Curve(3, 5), 50, ap_table(Curve(3, 5), 50))
    before = path.read_bytes()

    class HalfWriter:
        """A file that takes half of the first write, then reports a full disk."""

        def __init__(self, handle):
            self.handle = handle

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

    real_open = open
    monkeypatch.setattr(cache, "open", lambda *a, **k: HalfWriter(real_open(*a, **k)), raising=False)
    with pytest.raises(OSError):
        cache.write_cache(str(path), Curve(3, 5), 100, ap_table(Curve(3, 5), 100))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["f.cache"]


def test_cache_huge_pmax_rejected_without_sieving(tmp_path, monkeypatch):
    def no_big_sieve(limit):
        raise AssertionError(f"sieve to {limit}")

    monkeypatch.setattr(point_count, "sieve_primes", no_big_sieve)
    path = tmp_path / "g.cache"
    path.write_text(f"curvecount-cache v1 a=3 b=5 pmin=3 pmax={10**12}\n5,9,-4,brute\n")
    with pytest.raises(CacheInvalidError):
        cache.read_cache(str(path), Curve(3, 5))
    # Enough lines to pass the Rosser count at 10^7, but none of them a
    # record: each line is parsed before the sieve.
    path.write_text(f"curvecount-cache v1 a=3 b=5 pmin=3 pmax={10**7}\n" + "\n" * 620_430)
    with pytest.raises(CacheInvalidError, match="^'' is not a cache line$"):
        cache.read_cache(str(path), Curve(3, 5))


def test_cache_pmax_past_large_discriminant_rebuilt_without_sieving(tmp_path, capsys, monkeypatch):
    def sieve_to_limit(limit, real=modmath.sieve_primes):
        if limit > 3:
            raise AssertionError(f"sieve to {limit}")
        return real(limit)

    for module in (point_count, residue_lemmas, modmath):
        monkeypatch.setattr(module, "sieve_primes", sieve_to_limit)
    path = tmp_path / "h.cache"
    # |discriminant| of (1000, 1) is 6.4 * 10^10, far above pmax.
    for pmax, record, reason in (
        (10000000, "3,3,0,brute", "pmax=10000000"),
        # One record at a large prime: too few records to reach it.
        (10000019, "10000019,10000019,0,brute", "<= 10000019"),
        (30000023, "30000023,30000023,0,brute", "<= 30000023"),
    ):
        path.write_text(f"curvecount-cache v1 a=1000 b=1 pmin=3 pmax={pmax}\n{record}\n")
        argv = ["ap-table", "--a", "1000", "--b", "1", "--limit", "3", "--cache", str(path), "--workers", "1"]
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 0
        assert jsonl(captured.out) == [{"p": 3, "n_p": 3, "a_p": 0, "method": "brute"}]
        assert reason in rebuild_reason(captured.err, path)
        assert path.read_text() == "curvecount-cache v1 a=1000 b=1 pmin=3 pmax=3\n3,3,0,brute\n"


def test_cache_accepts_exactly_what_write_cache_writes(tmp_path):
    path = str(tmp_path / "r.cache")
    primes = primes_by_trial_division(1100)
    methods = ("brute", "lemma1", "lemma3_minus", "lemma3_plus", "gauss")

    def read_back(curve, pmax, records):
        cache.write_cache(path, curve, pmax, records)
        return cache.read_cache(path, curve)

    for curve in (Curve(3, 5), Curve(1000, 1)):
        for pmax in (0, 1, 2, 3, 16, 17, 60, 1000):
            records = ap_table(curve, pmax)
            assert read_back(curve, pmax, records) == (pmax, records)
            for i, record in enumerate(records):
                with pytest.raises(CacheInvalidError):
                    read_back(curve, pmax, records[:i] + records[i + 1:])
                for method in methods:
                    if method != record.method:
                        renamed = records[:i] + [record._replace(method=method)] + records[i + 1:]
                        with pytest.raises(CacheInvalidError):
                            read_back(curve, pmax, renamed)
            next_good = min(q for q in primes if q > max(pmax, 2) and curve.discriminant() % q)
            with pytest.raises(CacheInvalidError):
                read_back(curve, next_good, records)


def test_cache_rejects_bad_records(tmp_path):
    path = str(tmp_path / "d.cache")
    header = "curvecount-cache v1 a=3 b=5 pmin=3 pmax=50"
    for rows in (
        ["7,6,1,brute", "5,9,-4,brute"],  # out of order
        ["5,9,-3,brute"],  # a_p inconsistent
        ["5,9,-4,telepathy"],  # unknown method
        ["5,9,-4"],  # short row
        ["997,997,0,brute"],  # outside header range
        [""] * 20,  # blank lines, read one at a time
    ):
        open(path, "w").write("\n".join([header] + rows) + "\n")
        with pytest.raises(CacheInvalidError):
            cache.read_cache(path, Curve(3, 5))
    # Right values in text write_cache does not write.
    for text in (
        CANONICAL_13.replace("\n5,", "\n05,"),
        CANONICAL_13.replace("7,6,1", "7,06,1"),
        CANONICAL_13.replace("11,8,3,brute\n", "1_1,8,3,brute\n"),
        CANONICAL_13.replace("11,8,3,brute\n", "11,8,3,brute\r\n"),
        CANONICAL_13.replace(",5,brute", ",+5,brute"),
        CANONICAL_13.replace("5,9,-4", "5, 9,-4"),
        CANONICAL_13 + "\n",
        CANONICAL_13.replace("\n", "\r\n"),
        CANONICAL_13[:-1],
    ):
        with open(path, "w", newline="") as handle:
            handle.write(text)
        with pytest.raises(CacheInvalidError):
            cache.read_cache(path, Curve(3, 5))
    with open(path, "w", newline="") as handle:
        handle.write(CANONICAL_13)
    assert cache.read_cache(path, Curve(3, 5)) == (13, ap_table(Curve(3, 5), 13))


def test_cache_rejects_gaps_and_hasse_breaks(tmp_path):
    path = tmp_path / "e.cache"
    lines = ["curvecount-cache v1 a=3 b=5 pmin=3 pmax=50"]
    lines += [f"{r.p},{r.n_p},{r.a_p},{r.method}" for r in ap_table(Curve(3, 5), 50)]
    assert lines[2] == "7,6,1,brute"
    for rows in (
        lines[:2] + lines[3:],  # p = 7 dropped
        lines[:-1],  # p = 47 dropped from the end
        lines[:2] + ["7,1,6,brute"] + lines[3:],  # a_7 = 6 >= 2 sqrt(7)
    ):
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CacheInvalidError):
            cache.read_cache(str(path), Curve(3, 5))
    path.write_text("\n".join(lines) + "\n")
    assert len(cache.read_cache(str(path), Curve(3, 5))[1]) == 12


def test_lemma_verify_example(capsys):
    rc, out = run(capsys, ["lemma-verify", "--lemma", "7", "--limit", "2000", "--d-max", "20", "--workers", "2"])
    assert rc == 0
    assert jsonl(out) == [{"lemma": 7, "limit": 2000, "checked": 1575, "mismatches": 0}]


def test_lemma_verify_worker_invariance(capsys, fan_outs_forced):
    # limit 120 gives every lemma's prime class at least three primes, so a fan-out of three
    for lemma in range(1, 8):
        args = ["lemma-verify", "--lemma", str(lemma), "--limit", "120", "--d-max", "6"]
        _, one = run(capsys, args + ["--workers", "1"])
        _, three = run(capsys, args + ["--workers", "3"])
        assert one == three, lemma
        assert jsonl(one)[-1]["mismatches"] == 0
    assert fan_outs_forced == [3] * 7


def test_lemma_verify_sampling_is_seeded(capsys):
    args = ["lemma-verify", "--lemma", "1", "--limit", "300", "--workers", "1"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    _, reseeded = run(capsys, args + ["--seed", "9"])
    assert first == second
    assert jsonl(reseeded)[-1]["mismatches"] == 0


def test_lemma_verify_reports_findings(capsys, monkeypatch):
    # no real mismatch exists, so break the oracle to exercise the path
    monkeypatch.setattr(residue_lemmas, "_brute_counts", lambda p, b, a_values: [p + 2 for _ in a_values])
    rc, out = run(capsys, ["lemma-verify", "--lemma", "1", "--limit", "20", "--workers", "1"])
    assert rc == 1
    records = jsonl(out)
    assert records[0] == {"lemma": 1, "p": 3, "a": 1, "n_p": 5, "expected": 3}
    assert records[-1]["mismatches"] == records[-1]["checked"] > 0


def test_lemma3_oracle_builds_its_own_table(capsys, monkeypatch):
    # np_lemma3 reads the cached census, built on root_counts.  An oracle
    # that read that table too could not see it go wrong; this one builds its own.
    def wrong_table(p):
        r = modmath._root_counts(p)
        r[1] = 0  # 1 is a square at every p
        return r

    monkeypatch.setattr(point_count, "_root_counts", wrong_table)
    rc, out = run(capsys, ["lemma-verify", "--lemma", "3", "--limit", "30", "--workers", "1"])
    assert rc == 1 and jsonl(out)[-1]["mismatches"] > 0


def test_lemma5_scan_and_lemma_verify_share_one_sweep(capsys, monkeypatch):
    argv = ["lemma-verify", "--lemma", "5", "--limit", "100000", "--workers", "1"]
    rc, out = run(capsys, argv)
    assert rc == 0 and jsonl(out) == [{"lemma": 5, "limit": 100000, "checked": 9591, "mismatches": 0}]
    assert residue_lemmas.lemma5_scan(10**5) == []
    # With the class test broken, both report the same primes.
    monkeypatch.setattr(residue_lemmas, "_lemma5_hit", lambda p: p % 8 == 1)
    rc, out = run(capsys, argv)
    hits = [record["p"] for record in jsonl(out)[:-1]]
    assert rc == 1 and hits == residue_lemmas.lemma5_scan(10**5)
    assert hits == [p for p in primes_by_trial_division(10**5) if p % 8 == 1]


def test_lemma_verify_usage(capsys):
    assert cli.main(["lemma-verify", "--lemma", "9", "--limit", "100"]) == 2
    assert cli.main(["lemma-verify", "--lemma", "1", "--limit", "2"]) == 2


def test_lseries_exact_example(capsys):
    rc, out = run(capsys, ["lseries", "--a", "-1", "--b", "0", "--s", "1", "--limit", "7", "--exact"])
    assert rc == 0
    assert jsonl(out) == [
        {"a": -1, "b": 0, "s": 1, "prime_bound": 7, "value": "105/256",
         "factor_count": 3, "skipped_primes": [2]}
    ]
    rc, out = run(capsys, ["lseries", "--a", "-25", "--b", "0", "--s", "1", "--limit", "13", "--exact", "--format", "csv"])
    assert rc == 0
    assert out == ("a,b,s,prime_bound,value,factor_count,skipped_primes\r\n"
                   '-25,0,1,13,1001/2560,4,"[2, 5]"\r\n')


def test_lseries_exact_past_digit_limit(capsys):
    rc, out = run(capsys, ["lseries", "--a", "-1", "--b", "0", "--s", "3", "--limit", "3000", "--exact"])
    assert rc == 0
    num, den = jsonl(out)[0]["value"].split("/")
    assert len(num) > 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(int(num), int(den)) == partial_L_exact(Curve(-1, 0), 3, 3000).value
    finally:
        sys.set_int_max_str_digits(saved)


def test_lseries_exact_digit_ceiling(capsys, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit}")

    for module in (point_count, residue_lemmas, modmath):
        monkeypatch.setattr(module, "sieve_primes", no_sieve)
    for s in ("1e300", "100000"):
        rc = cli.main(["lseries", "--a", "-1", "--b", "0", "--s", s, "--limit", "100", "--exact"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "digits" in captured.err
    monkeypatch.undo()
    rc, out = run(capsys, ["lseries", "--a", "-1", "--b", "0", "--s", "3", "--limit", "3000", "--exact"])
    assert rc == 0 and jsonl(out)[0]["factor_count"] == 429
    assert commands.EXACT_DIGITS_CEILING == 10**6


def test_lseries_exact_sieves_once(capsys, monkeypatch):
    calls = []

    def counting(limit, real=modmath.sieve_primes):
        calls.append(limit)
        return real(limit)

    for module in (point_count, residue_lemmas, modmath):
        monkeypatch.setattr(module, "sieve_primes", counting)
    rc, out = run(capsys, ["lseries", "--a", "-1", "--b", "0", "--s", "2", "--limit", "500", "--exact"])
    assert rc == 0 and jsonl(out)[0]["factor_count"] == 94
    assert calls == [500]


def test_lseries_exact_refuses_s_a_float_may_have_rounded(capsys):
    for s in ("9007199254740993", "1e300"):
        rc = cli.main(["lseries", "--a", "-1", "--b", "0", "--s", s, "--limit", "0", "--exact"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "below 2^53" in captured.err
    rc, out = run(capsys, ["lseries", "--a", "-1", "--b", "0", "--s", "9007199254740991", "--limit", "0", "--exact"])
    assert rc == 0
    assert jsonl(out) == [
        {"a": -1, "b": 0, "s": 9007199254740991, "prime_bound": 0, "value": "1/1",
         "factor_count": 0, "skipped_primes": []}
    ]
    assert commands.EXACT_S_CEILING == 2**53


def test_lseries_float_mode(capsys):
    rc, out = run(capsys, ["lseries", "--a", "-1", "--b", "0", "--s", "1", "--limit", "7"])
    assert rc == 0
    (record,) = jsonl(out)
    assert record["value"] == pytest.approx(105 / 256, rel=1e-12)
    assert cli.main(["lseries", "--a", "-1", "--b", "0", "--s", "1.5", "--limit", "7", "--exact"]) == 2
    assert cli.main(["lseries", "--a", "0", "--b", "0", "--s", "1", "--limit", "7"]) == 2


def test_ratio_trace(capsys):
    rc, out = run(capsys, ["ratio", "--a1", "-1", "--b1", "0", "--a2", "1", "--b2", "0", "--s", "1", "--limit", "13"])
    assert rc == 0
    records = jsonl(out)
    assert [r["p"] for r in records[:-1]] == [3, 5, 7, 11, 13]
    assert records[1]["factor"] == pytest.approx(0.5, rel=1e-12)
    assert records[-1]["ratio"] == pytest.approx(1.25, rel=1e-12)


def test_find_points_records(capsys):
    rc, out = run(capsys, ["find-points", "--d", "6", "--bound", "2"])
    assert rc == 0
    assert jsonl(out) == [
        {"d": 6, "x": "-2/1", "y": "-8/1"},
        {"d": 6, "x": "-2/1", "y": "8/1"},
        {"d": 6, "x": "18/1", "y": "-72/1"},
        {"d": 6, "x": "18/1", "y": "72/1"},
    ]
    for fmt in ("jsonl", "csv"):  # with no row, csv prints no header either, not a bare line ending
        rc, out = run(capsys, ["find-points", "--d", "1", "--bound", "50", "--format", fmt])
        assert rc == 0 and out == ""


def test_lemma11_applicable_and_control(capsys):
    rc, out = run(capsys, ["lemma11", "--d", "3", "--bound", "100"])
    assert rc == 0
    assert jsonl(out) == [{"d": 3, "bound": 100, "applicable": True, "hits": 0, "violation": False}]
    rc, out = run(capsys, ["lemma11", "--d", "6", "--bound", "10"])
    assert rc == 0
    records = jsonl(out)
    assert records[:-1] == [{"k": 4, "j": 1, "m": 2, "e": 1}, {"k": 3, "j": 1, "m": 3, "e": 1}]
    assert records[-1] == {"d": 6, "bound": 10, "applicable": False, "hits": 2, "violation": False}
    rc, out = run(capsys, ["lemma11", "--d", "6", "--bound", "10", "--format", "csv"])
    assert rc == 0
    assert out == ("k,j,m,e,d,bound,applicable,hits,violation\r\n4,1,2,1,,,,,\r\n3,1,3,1,,,,,\r\n"
                   ",,,,6,10,False,2,False\r\n")


def test_lemma11_violation_exit_code(capsys, monkeypatch):
    # unreachable with honest data; force it to pin the exit code contract
    monkeypatch.setattr(rational_points, "lemma11_applicable", lambda d: True)
    rc, out = run(capsys, ["lemma11", "--d", "6", "--bound", "10"])
    assert rc == 1
    assert jsonl(out)[-1]["violation"] is True


def test_collisions_records(capsys):
    rc, out = run(capsys, ["collisions", "--bound", "21", "--workers", "1"])
    assert rc == 0
    assert jsonl(out) == [
        {"v": 8820, "members": [[1, 20], [5, 9]], "d_values": [7980, 2520], "shared_x": 8820}
    ]
    rc, out = run(capsys, ["collisions", "--bound", "21", "--workers", "1", "--format", "csv"])
    assert rc == 0
    assert out == 'v,members,d_values,shared_x\r\n8820,"[[1, 20], [5, 9]]","[7980, 2520]",8820\r\n'


def test_collisions_worker_invariance(capsys, fan_outs_forced):
    # Bound 60 has 35 class pairs (sq(e), sq(m)), enough for all 4 workers.
    _, one = run(capsys, ["collisions", "--bound", "60", "--workers", "1"])
    _, four = run(capsys, ["collisions", "--bound", "60", "--workers", "4"])
    assert one == four
    assert fan_outs_forced == [4]


@pytest.mark.parametrize(
    "argv",
    [
        ["ap-table", "--a", "-1", "--b", "0", "--limit", "60"],
        ["lemma-verify", "--lemma", "3", "--limit", "60"],
        ["collisions", "--bound", "30"],
    ],
    ids=lambda argv: argv[0],
)
def test_workers_below_one_rejected(capsys, argv):
    for workers in ("0", "-1"):
        rc, out = run(capsys, argv + ["--workers", workers])
        assert rc == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["ap-table", "--a", "3", "--b", "5", "--limit", "2000"],
        ["lemma-verify", "--lemma", "2", "--limit", "5000"],
        ["collisions", "--bound", "1300"],
    ],
    ids=lambda argv: argv[0],
)
def test_largest_accepted_workers_forks_ceiling_minus_one(capsys, monkeypatch, argv):
    # With BREAK_EVEN below 0 each sweep fans out after its first batch,
    # with more batches left than workers (bound 1300 has 791 class
    # pairs), so the fan-out takes every worker allowed; the batches run
    # here, so nothing forks.
    process_counts = []

    def in_process(fn, batches, processes):
        process_counts.append(processes)
        return [fn(batch) for batch in batches]

    monkeypatch.setattr(sweep, "BREAK_EVEN", -1)
    monkeypatch.setattr(sweep, "_fan_out", in_process)
    _, one = run(capsys, argv + ["--workers", "1"])
    rc, most = run(capsys, argv + ["--workers", str(cli.WORKERS_CEILING)])
    assert rc == 0 and most == one
    assert process_counts == [cli.WORKERS_CEILING] == [64]


@pytest.mark.parametrize(
    "argv",
    [
        ["ap-table", "--a", "-1", "--b", "0"],
        ["lseries", "--a", "-1", "--b", "0", "--s", "1"],
        ["ratio", "--a1", "-1", "--b1", "0", "--a2", "1", "--b2", "0", "--s", "1"],
        ["lemma-verify", "--lemma", "3"],
        ["lemma8"],
    ],
    ids=lambda argv: argv[0],
)
def test_limit_above_ceiling_rejected(capsys, monkeypatch, argv):
    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit}")

    for module in (point_count, residue_lemmas, modmath):
        monkeypatch.setattr(module, "sieve_primes", no_sieve)
    rc, out = run(capsys, argv + ["--limit", str(10**12)])
    assert rc == 2 and out == ""
    assert cli.LIMIT_CEILING == 10**8


@pytest.mark.parametrize(
    "argv",
    [
        ["ap-table", "--a", "0", "--b", "0", "--limit", "50", "--cache", "unused.cache"],
        ["lseries", "--a", "0", "--b", "0", "--s", "1", "--limit", "50"],
        ["lseries", "--a", "0", "--b", "0", "--s", "1", "--limit", "50", "--exact"],
        ["ratio", "--a1", "0", "--b1", "0", "--a2", "1", "--b2", "0", "--s", "1", "--limit", "50"],
        ["ratio", "--a1", "1", "--b1", "0", "--a2", "0", "--b2", "0", "--s", "1", "--limit", "50"],
        ["ap-table", "--a", "1", "--b", "0", "--limit", "-1"],
        ["lseries", "--a", "1", "--b", "0", "--s", "1", "--limit", "-1"],
        ["ratio", "--a1", "1", "--b1", "0", "--a2", "-1", "--b2", "0", "--s", "1", "--limit", "-1"],
        ["count", "--a", "0", "--b", "0", "--p", "5"],
    ],
    ids=lambda argv: " ".join(argv[:5]),
)
def test_singular_curve_or_negative_limit_rejected_before_work(tmp_path, capsys, monkeypatch, argv):
    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit}")

    for module in (point_count, residue_lemmas, modmath):
        monkeypatch.setattr(module, "sieve_primes", no_sieve)
    monkeypatch.chdir(tmp_path)
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "is singular" in captured.err or "argument --limit" in captured.err
    assert os.listdir(tmp_path) == []


# (command, {} marking the value; the argument; the edge value inside its
# range; the first value outside it, and for collisions --bound a far one)
RANGED_ARGUMENTS = [
    ("profile {}", "p", "3", "2"),
    ("count --a -1 --b 0 --p {}", "--p", "3", "2"),
    ("count --a -1 --b 0 --p {}", "--p", "7", "9"),
    ("ap-table --a -1 --b 0 --cache c.cache --limit {}", "--limit", "0", "-1"),
    ("ap-table --a -1 --b 0 --cache c.cache --limit {}", "--limit", "100000000", "100000001"),
    ("ap-table --a -1 --b 0 --cache c.cache --limit 60 --workers {}", "--workers", "1", "0"),
    ("ap-table --a -1 --b 0 --cache c.cache --limit 60 --workers {}", "--workers", "64", "65"),
    ("lemma-verify --limit 60 --lemma {}", "--lemma", "1", "0"),
    ("lemma-verify --limit 60 --lemma {}", "--lemma", "7", "8"),
    ("lemma-verify --lemma 3 --limit {}", "--limit", "3", "2"),
    ("lemma-verify --lemma 3 --limit {}", "--limit", "100000000", "100000001"),
    ("lemma-verify --lemma 3 --limit 60 --d-max {}", "--d-max", "1", "0"),
    ("lemma-verify --lemma 3 --limit 60 --d-max {}", "--d-max", "100000", "100001"),
    ("lemma-verify --lemma 7 --limit 60 --d-max {}", "--d-max", "100000", str(10**8)),
    ("lemma-verify --lemma 1 --limit 60 --samples {}", "--samples", "1", "0"),
    ("lemma-verify --lemma 3 --limit 60 --workers {}", "--workers", "1", "0"),
    ("lemma-verify --lemma 3 --limit 60 --workers {}", "--workers", "64", "65"),
    ("lemma-verify --lemma 2 --limit 1000000 --workers {}", "--workers", "64", "100000"),
    ("lseries --a -1 --b 0 --limit 60 --s {}", "--s", "5e-324", "0"),
    ("lseries --a -1 --b 0 --limit 60 --exact --s {}", "--s", "1.7976931348623157e+308", "inf"),
    ("lseries --a -1 --b 0 --s 1 --limit {}", "--limit", "0", "-1"),
    ("lseries --a -1 --b 0 --s 1 --limit {}", "--limit", "100000000", "100000001"),
    ("ratio --a1 -1 --b1 0 --a2 1 --b2 0 --limit 60 --s {}", "--s", "5e-324", "0"),
    ("ratio --a1 -1 --b1 0 --a2 1 --b2 0 --s 1 --limit {}", "--limit", "0", "-1"),
    ("ratio --a1 -1 --b1 0 --a2 1 --b2 0 --s 1 --limit {}", "--limit", "100000000", "100000001"),
    ("find-points --bound 10 --d {}", "--d", "1", "0"),
    ("find-points --d 6 --bound {}", "--bound", "2", "1"),
    ("find-points --d 6 --bound {}", "--bound", "1000000", "1000001"),
    ("find-points --d 6 --bound {}", "--bound", "1000000", str(10**12)),
    ("lemma11 --bound 10 --d {}", "--d", "1", "0"),
    ("lemma11 --bound 10 --d {}", "--d", "3317044064679887385961980", "3317044064679887385961981"),
    ("lemma11 --d 3 --bound {}", "--bound", "0", "-1"),
    ("lemma11 --d 3 --bound {}", "--bound", "1000000", "1000001"),
    ("lemma11 --d 3 --bound {}", "--bound", "1000000", str(10**12)),
    # Collision work grows as bound^2: bound 10^4 took 17.4 s at one worker
    # (9.8 s at two), so the former ceiling of 10^6, about two days, is refused.
    ("collisions --bound {}", "--bound", "2", "1"),
    ("collisions --bound {}", "--bound", "10000", "10001"),
    ("collisions --bound {}", "--bound", "10000", str(10**6)),
    ("collisions --bound 30 --workers {}", "--workers", "1", "0"),
    ("collisions --bound 30 --workers {}", "--workers", "64", "65"),
    ("collisions --bound 2000 --workers {}", "--workers", "64", "1000"),
    ("lemma8 --limit {}", "--limit", "3", "2"),
    ("lemma8 --limit {}", "--limit", "100000000", "100000001"),
]


@pytest.mark.parametrize(
    "command, name, edge, outside",
    RANGED_ARGUMENTS,
    ids=lambda value: value.split()[0] if " " in value else value,
)
def test_argument_out_of_range_rejected_at_parse_time(tmp_path, capsys, monkeypatch, command, name, edge, outside):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module in (point_count, residue_lemmas, modmath):
        monkeypatch.setattr(module, "sieve_primes", no_work)
    for module, function in (
        (collisions, "collision_search"),
        (rational_points, "find_points_for_d"),
        (rational_points, "lemma11_exhaustive"),
        (modmath, "prime_profile"),
        (point_count, "trace_ap"),
    ):
        monkeypatch.setattr(module, function, no_work)
    monkeypatch.chdir(tmp_path)
    rc = cli.main(command.format(outside).split())
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert f"argument {name}:" in captured.err
    assert os.listdir(tmp_path) == []
    args = cli.build_parser().parse_args(command.format(edge).split())
    assert str(getattr(args, name.lstrip("-").replace("-", "_"))) == edge


def test_lemma8_record(capsys):
    rc, out = run(capsys, ["lemma8", "--limit", "100"])
    assert rc == 0
    assert jsonl(out) == [{"limit": 100, "ones": 11, "threes": 13, "fraction": "11/24"}]
