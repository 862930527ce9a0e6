import json
import os
import sys
from fractions import Fraction

import pytest

from curvecount import cache, cli
from curvecount.errors import CacheInvalidError
from curvecount.lseries import partial_L_exact
from curvecount.point_count import Curve, ap_table


def run(capsys, argv):
    rc = cli.main(argv)
    return rc, capsys.readouterr().out


def jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


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


def test_profile_usage_errors(capsys):
    assert cli.main(["profile", "12"]) == 2
    assert cli.main(["profile", "2"]) == 2


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


def test_unknown_flag_and_subcommand_rejected(capsys):
    assert cli.main(["count", "--a", "-1", "--b", "0", "--p", "13", "--frobnicate"]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2


def test_ap_table_cache_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "minus1.cache")
    args = ["ap-table", "--a", "-1", "--b", "0", "--limit", "60", "--cache", path, "--workers", "1"]
    rc, fresh = run(capsys, args)
    assert rc == 0
    first_bytes = open(path, "rb").read()
    rc, cached = run(capsys, args)
    assert rc == 0
    assert cached == fresh
    assert open(path, "rb").read() == first_bytes


def test_ap_table_cache_extends(tmp_path, capsys):
    path = str(tmp_path / "minus1.cache")
    run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "40", "--cache", path])
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "80", "--cache", path])
    assert rc == 0
    header, records = cache.read_cache(path, Curve(-1, 0))
    assert header.pmax == 80
    assert [r.p for r in records] == [r["p"] for r in jsonl(out)]
    # a shrunk limit serves from cache without rewriting the range
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "20", "--cache", path])
    assert [r["p"] for r in jsonl(out)] == [3, 5, 7, 11, 13, 17, 19]
    assert cache.read_cache(path, Curve(-1, 0))[0].pmax == 80


def test_ap_table_tampered_cache_recomputes(tmp_path, capsys):
    path = str(tmp_path / "minus1.cache")
    args = ["ap-table", "--a", "-1", "--b", "0", "--limit", "60", "--cache", path]
    _, fresh = run(capsys, args)
    lines = open(path).read().splitlines()
    lines[0] = lines[0].replace("v1", "v9")
    open(path, "w").write("\n".join(lines) + "\n")
    rc, again = run(capsys, args)
    assert rc == 0
    assert again == fresh
    # the bad file was overwritten with a valid one
    assert cache.read_cache(path, Curve(-1, 0))[0].pmax == 60


def test_ap_table_incomplete_cache_recomputes(tmp_path, capsys):
    path = tmp_path / "minus1.cache"
    args = ["ap-table", "--a", "-1", "--b", "0", "--limit", "60", "--cache", str(path)]
    _, cold = run(capsys, args)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("7,")) + "\n")
    rc, again = run(capsys, args)
    assert rc == 0
    assert again == cold


def test_ap_table_worker_invariance(tmp_path, capsys):
    args = ["ap-table", "--a", "1", "--b", "0", "--limit", "300"]
    _, one = run(capsys, args + ["--workers", "1"])
    _, three = run(capsys, args + ["--workers", "3"])
    assert one == three


def test_ap_table_cross_validate(capsys):
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "150", "--cross-validate", "--workers", "1"])
    assert rc == 0
    records = jsonl(out)
    assert all(r["brute_np"] == r["n_p"] for r in records)


def test_ap_table_plus_one_leaves_cache_raw(tmp_path, capsys):
    path = str(tmp_path / "plus.cache")
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "20", "--cache", path, "--plus-one"])
    assert rc == 0
    shown = {r["p"]: r["n_p"] for r in jsonl(out)}
    _, records = cache.read_cache(path, Curve(-1, 0))
    assert {r.p: r.n_p for r in records} == {p: n - 1 for p, n in shown.items()}


def test_ap_table_empty_range(tmp_path, capsys):
    path = str(tmp_path / "empty.cache")
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "2", "--cache", path])
    assert rc == 0
    assert out == ""
    header, records = cache.read_cache(path, Curve(-1, 0))
    assert records == [] and header.pmax == 2


def test_ap_table_csv(capsys):
    rc, out = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "13", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "p,n_p,a_p,method"
    assert lines[1] == "3,3,0,lemma1"
    assert lines[5] == "13,7,6,lemma3_minus"


def test_cache_env_var_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path))
    rc, _ = run(capsys, ["ap-table", "--a", "-1", "--b", "0", "--limit", "30", "--cache", "rel.cache"])
    assert rc == 0
    assert (tmp_path / "rel.cache").exists()
    assert not os.path.exists("rel.cache")


def test_cache_thousand_records_byte_identical(tmp_path):
    records = ap_table(Curve(-1, 0), 8000)
    assert len(records) > 1000
    first, second = str(tmp_path / "a.cache"), str(tmp_path / "b.cache")
    cache.write_cache(first, Curve(-1, 0), 8000, records)
    _, reread = cache.read_cache(first, Curve(-1, 0))
    cache.write_cache(second, Curve(-1, 0), 8000, reread)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_cache_rejects_wrong_curve_and_garbage(tmp_path):
    path = str(tmp_path / "c.cache")
    cache.write_cache(path, Curve(-1, 0), 50, ap_table(Curve(-1, 0), 50))
    with pytest.raises(CacheInvalidError):
        cache.read_cache(path, Curve(1, 0))
    for bad in (
        "curvecount-cache v2 a=-1 b=0 pmin=3 pmax=50\n",
        "other-tool v1 a=-1 b=0 pmin=3 pmax=50\n",
        "curvecount-cache v1 a=-1 b=0 pmin=3\n",
        "curvecount-cache v1 a=x b=0 pmin=3 pmax=50\n",
        "",
    ):
        open(path, "w").write(bad)
        with pytest.raises(CacheInvalidError):
            cache.read_cache(path, Curve(-1, 0))
    with pytest.raises(FileNotFoundError):
        cache.read_cache(str(tmp_path / "missing.cache"), Curve(-1, 0))


def test_cache_rejects_bad_records(tmp_path):
    path = str(tmp_path / "d.cache")
    header = "curvecount-cache v1 a=-1 b=0 pmin=3 pmax=50"
    for rows in (
        ["7,7,0,lemma1", "5,7,-2,lemma3_minus"],  # out of order
        ["5,7,-3,lemma3_minus"],  # a_p inconsistent
        ["5,7,-2,telepathy"],  # unknown method
        ["5,7,-2"],  # short row
        ["997,997,0,lemma1"],  # outside header range
    ):
        open(path, "w").write("\n".join([header] + rows) + "\n")
        with pytest.raises(CacheInvalidError):
            cache.read_cache(path, Curve(-1, 0))


def test_cache_rejects_gaps_and_hasse_breaks(tmp_path):
    path = tmp_path / "e.cache"
    lines = ["curvecount-cache v1 a=-1 b=0 pmin=3 pmax=50"]
    lines += [f"{r.p},{r.n_p},{r.a_p},{r.method}" for r in ap_table(Curve(-1, 0), 50)]
    assert lines[3] == "7,7,0,lemma1"
    for rows in (
        lines[:3] + lines[4:],  # p = 7 dropped
        lines[:-1],  # p = 47 dropped from the end
        lines[:3] + ["7,1,6,lemma1"] + lines[4:],  # a_7 = 6 >= 2 sqrt(7)
    ):
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CacheInvalidError):
            cache.read_cache(str(path), Curve(-1, 0))
    path.write_text("\n".join(lines) + "\n")
    assert len(cache.read_cache(str(path), Curve(-1, 0))[1]) == 14


def test_lemma_verify_example(capsys):
    rc, out = run(capsys, ["lemma-verify", "--lemma", "7", "--limit", "2000", "--d-max", "20", "--workers", "2"])
    assert rc == 0
    assert jsonl(out) == [{"lemma": 7, "limit": 2000, "checked": 1575, "mismatches": 0}]


def test_lemma_verify_worker_invariance(capsys):
    # limit 120 gives every lemma's prime class at least two primes per worker
    for lemma in range(1, 8):
        args = ["lemma-verify", "--lemma", str(lemma), "--limit", "120", "--d-max", "6"]
        _, one = run(capsys, args + ["--workers", "1"])
        _, three = run(capsys, args + ["--workers", "3"])
        assert one == three, lemma
        assert jsonl(one)[-1]["mismatches"] == 0


def test_lemma_verify_sampling_is_seeded(capsys):
    args = ["lemma-verify", "--lemma", "1", "--limit", "300", "--workers", "1"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    _, reseeded = run(capsys, args + ["--seed", "9"])
    assert first == second
    assert jsonl(reseeded)[-1]["mismatches"] == 0


def test_lemma_verify_reports_findings(capsys, monkeypatch):
    # no real mismatch exists, so break the oracle to exercise the path
    monkeypatch.setattr(cli, "count_affine_points", lambda curve, p: p + 2)
    rc, out = run(capsys, ["lemma-verify", "--lemma", "1", "--limit", "20", "--workers", "1"])
    assert rc == 1
    records = jsonl(out)
    assert records[0] == {"lemma": 1, "p": 3, "a": 1, "n_p": 5, "expected": 3}
    assert records[-1]["mismatches"] == records[-1]["checked"] > 0


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


def test_lseries_exact_past_digit_limit(capsys):
    rc, out = run(capsys, ["lseries", "--a", "-1", "--b", "0", "--s", "3", "--limit", "3000", "--exact"])
    assert rc == 0
    num, den = jsonl(out)[0]["value"].split("/")
    assert len(num) > 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(int(num), int(den)) == partial_L_exact(Curve(-1, 0), 3, 3000)
    finally:
        sys.set_int_max_str_digits(saved)


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
    rc, out = run(capsys, ["find-points", "--d", "1", "--bound", "50"])
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


def test_lemma11_violation_exit_code(capsys, monkeypatch):
    # unreachable with honest data; force it to pin the exit code contract
    monkeypatch.setattr(cli, "lemma11_applicable", lambda d: True)
    rc, out = run(capsys, ["lemma11", "--d", "6", "--bound", "10"])
    assert rc == 1
    assert jsonl(out)[-1]["violation"] is True


def test_collisions_records(capsys):
    rc, out = run(capsys, ["collisions", "--bound", "21", "--workers", "1"])
    assert rc == 0
    assert jsonl(out) == [
        {"v": 8820, "members": [[1, 20], [5, 9]], "d_values": [7980, 2520], "shared_x": 8820}
    ]


def test_collisions_worker_invariance(capsys):
    _, one = run(capsys, ["collisions", "--bound", "40", "--workers", "1"])
    _, four = run(capsys, ["collisions", "--bound", "40", "--workers", "4"])
    assert one == four


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


def test_lemma8_record(capsys):
    rc, out = run(capsys, ["lemma8", "--limit", "100"])
    assert rc == 0
    assert jsonl(out) == [{"limit": 100, "ones": 11, "threes": 13, "fraction": "11/24"}]
