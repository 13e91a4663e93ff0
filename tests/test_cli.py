import csv
import dataclasses
import io
import json

import pytest

from templink.cli import run
from templink.crossing import enumerate_cuts


def test_lk_example(capsys):
    assert run(["lk", "--p", "3", "--q", "3", "--r", "4", "ab", "ab"]) == 0
    assert capsys.readouterr().out.strip() == "-1/3"


def test_lk_cyclic_equivalence(capsys):
    assert run(["lk", "--p", "3", "--q", "3", "--r", "4", "ab", "ba"]) == 0
    assert capsys.readouterr().out.strip() == "-1/3"


def test_cr_command(capsys):
    assert run(["cr", "ab", "aabb"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert run(["cr", "ab", "ba"]) == 0  # same orbit: self-crossing convention
    assert capsys.readouterr().out.strip() == "2"


def test_homology_command(capsys):
    assert run(["homology", "2", "3", "7"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_admissible_command(capsys):
    assert run(["admissible", "--p", "3", "--q", "3", "--r", "4", "ab", "aab"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["ab true", "aab false"]


TABLES = {
    (3, 3, 4): ["u_L = |aababaabb", "u_R = |abbababba", "v_L = |baababaab", "v_R = |bbababbaa"],
    (2, 5, 7): ["u_L = |abababb", "u_R = ab|bbbabbbba", "v_L = |bababab", "v_R = b|bbbabbbba"],
}


def test_table_command(capsys):
    # u_R = a.v_R and v_L = b.u_L are derived from the stored bounds
    for (p, q, r), lines in TABLES.items():
        assert run(["table", "--p", str(p), "--q", str(q), "--r", str(r)]) == 0
        assert capsys.readouterr().out.splitlines() == lines


def test_enumerate_and_extremal(capsys):
    assert run(["enumerate", "--p", "3", "--q", "3", "--r", "4", "--max-len", "3"]) == 0
    assert capsys.readouterr().out.split() == ["ab"]
    assert run(["extremal", "--p", "3", "--q", "3", "--r", "4", "--format", "json"]) == 0
    words = json.loads(capsys.readouterr().out)
    assert len(words) == 7 and "aababb" in words
    argv = ["enumerate", "--p", "3", "--q", "3", "--r", "4", "--max-len", "1", "--format", "csv"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "word\n"  # an empty census keeps its header


def test_cuts_command(capsys):
    assert run(["cuts", "ab"]) == 0
    assert capsys.readouterr().out.startswith("a|b")


def test_cuts_command_csv_and_json(capsys):
    assert run(["cuts", "aabb", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "u,v,rotation,split",
        "a,abb,0,1",
        "aa,bb,0,2",
        "baa,b,3,3",
    ]
    assert run(["cuts", "aabb", "--format", "json"]) == 0
    cuts = [dataclasses.asdict(c) for c in enumerate_cuts("aabb")]
    assert json.loads(capsys.readouterr().out) == cuts
    assert run(["cuts", "a", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "u,v,rotation,split\n"  # no cuts, still a header


def test_cuts_command_golden_output_with_power_factors(capsys):
    # baabaa, bb, baba and bababa are proper powers; the cuts keep their order
    assert run(["cuts", "aabaabbb"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "aabbba|ab (rotation 3, split 6)",
        "bbaabaa|b (rotation 6, split 7)",
        "baa|baabb (rotation 7, split 3)",
        "baabaa|bb (rotation 7, split 6)",
    ]
    assert run(["cuts", "abababbb"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "bbababa|b (rotation 6, split 7)",
        "ba|bababb (rotation 7, split 2)",
        "baba|babb (rotation 7, split 4)",
        "bababa|bb (rotation 7, split 6)",
    ]


def test_verify_single_triple_ok(capsys):
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairs"] == 28 and payload["violations"] == 0
    assert payload["worst"] == "-1/3"
    assert len(payload["reports"]) == 28


def test_verify_positive_control_exits_1(capsys):
    code = run(["verify", "--p", "3", "--q", "3", "--r", "4", "aab"])
    assert code == 1
    err = capsys.readouterr().err
    assert "lk(aab,aab) = 1" in err


def test_verify_stderr_lists_at_most_ten_violations(capsys):
    from templink.cli import MAX_VIOLATION_LINES

    words = ["aab", "aaab", "aaaab", "aaaaab", "aaaaaab"]
    code = run(["verify", "--p", "3", "--q", "3", "--r", "4", "--format", "json", *words])
    assert code == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["violations"] == 15
    assert sum(not r["negative"] for r in payload["reports"]) == 15  # the report keeps them all
    err = captured.err.splitlines()
    assert MAX_VIOLATION_LINES == 10
    assert err[0] == "violations: 15 (10 listed below)"
    assert len([line for line in err if line.startswith("violation:")]) == 10
    assert err[1] == "violation: lk(aab,aab) = 1 >= 0"


def test_verify_range_mode(capsys):
    code = run(
        ["verify", "--p-max", "3", "--q-max", "3", "--r-max", "5",
         "--jobs", "1", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p,q,r,words,pairs,violations")
    assert len(lines) == 3  # (3,3,4) and (3,3,5)


def test_verify_csv_output_to_file(tmp_path, capsys):
    out = tmp_path / "reports.csv"
    code = run(
        ["verify", "--p", "3", "--q", "3", "--r", "4", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "word1,word2,cr,na1,nb1,na2,nb2,lk_num,lk_den,negative"
    assert len(lines) == 29


# `verify --p 3 --q 3 --r 4 --format csv`, verbatim: the report serialization pinned line for line
GOLDEN_334_CSV = [
    "word1,word2,cr,na1,nb1,na2,nb2,lk_num,lk_den,negative",
    "ab,ab,2,1,1,1,1,-1,3,true",
    "ab,aabb,4,1,1,2,2,-2,3,true",
    "ab,aabab,4,1,1,3,2,-1,3,true",
    "ab,ababb,4,1,1,2,3,-1,3,true",
    "ab,aababb,6,1,1,3,3,-1,1,true",
    "ab,aabaabb,6,1,1,4,3,-2,3,true",
    "ab,aabbabb,6,1,1,3,4,-2,3,true",
    "aabb,aabb,6,2,2,2,2,-1,3,true",
    "aabb,aabab,8,2,2,3,2,-2,3,true",
    "aabb,ababb,8,2,2,2,3,-2,3,true",
    "aabb,aababb,10,2,2,3,3,-1,1,true",
    "aabb,aabaabb,10,2,2,4,3,-1,3,true",
    "aabb,aabbabb,10,2,2,3,4,-1,3,true",
    "aabab,aabab,12,3,2,3,2,-1,3,true",
    "aabab,ababb,8,3,2,2,3,-4,3,true",
    "aabab,aababb,12,3,2,3,3,-1,1,true",
    "aabab,aabaabb,16,3,2,4,3,-2,3,true",
    "aabab,aabbabb,12,3,2,3,4,-5,3,true",
    "ababb,ababb,12,2,3,2,3,-1,3,true",
    "ababb,aababb,12,2,3,3,3,-1,1,true",
    "ababb,aabaabb,12,2,3,4,3,-5,3,true",
    "ababb,aabbabb,16,2,3,3,4,-2,3,true",
    "aababb,aababb,14,3,3,3,3,-1,1,true",
    "aababb,aabaabb,16,3,3,4,3,-1,1,true",
    "aababb,aabbabb,16,3,3,3,4,-1,1,true",
    "aabaabb,aabaabb,20,4,3,4,3,-1,3,true",
    "aabaabb,aabbabb,16,4,3,3,4,-4,3,true",
    "aabbabb,aabbabb,20,3,4,3,4,-1,3,true",
]


def test_verify_csv_golden_output(capsys):
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == GOLDEN_334_CSV


def test_usage_and_domain_errors_exit_2(capsys):
    assert run(["lk", "--p", "3", "--q", "3", "--r", "4", "ab", "ac"]) == 2
    assert run(["lk", "--p", "2", "--q", "2", "--r", "9", "ab", "ab"]) == 2
    assert run(["table", "--p", "2", "--q", "5", "--r", "4"]) == 2
    assert run(["verify", "--p", "3", "--q", "3"]) == 2
    # self-pairs are always verified: the positive control cannot be emptied of pairs
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "--no-self", "aab"]) == 2
    assert capsys.readouterr().out == ""
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "--no-p2"]) == 2
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "--jobs", "0"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["enumerate", "--p", "3", "--q", "3", "--r", "4", "--max-len", "64"]) == 2
    capsys.readouterr()
    either = "verify needs either --p/--q/--r or --p-max/--q-max/--r-max"
    ranged = ["--p-max", "3", "--q-max", "3", "--r-max", "5"]
    for argv, message in (
        (["verify"], either),
        (["verify", "--p-max", "3"], "range mode needs --p-max, --q-max and --r-max"),
        (["verify", "--p", "3", "--q", "3", "--r", "4", *ranged], either),
        (["verify", "--p", "3", "--q", "3", "--r", "4", "--r-max", "9"], either),
        (["verify", "--p-max", "3", "--q-max", "3", "--r-max", "4", "--q", "5"], either),
        (["verify", *ranged, "aab"], "explicit words only make sense with a single triple"),
        # range mode passes --jobs on, and verify_range refuses it
        (["verify", *ranged, "--jobs", "0"], "jobs must be >= 1"),
    ):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command",
    [
        ["enumerate", "--p", "3", "--q", "3", "--r", "4", "--max-len", "4"],
        ["verify", "--p", "3", "--q", "3", "--r", "4"],
    ],
)
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "out.csv"):
        assert run([*command, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_out_exits_2_before_any_engine_runs(monkeypatch, tmp_path, capsys):
    import templink.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("an engine ran before --out was checked")

    for name in ("verify_range", "verify_pairs", "enumerate_admissible", "extremal_orbits"):
        monkeypatch.setattr(cli.census, name, never)
    monkeypatch.setattr(cli, "enumerate_cuts", never)
    triple = ["--p", "3", "--q", "3", "--r", "4"]
    for command in (
        ["enumerate", *triple, "--max-len", "4"],
        ["extremal", *triple],
        ["cuts", "aabb"],
        ["verify", *triple],
        ["verify", "--p-max", "6", "--q-max", "8", "--r-max", "10", "--jobs", "1"],
    ):
        for out in (tmp_path, tmp_path / "missing" / "x.csv"):
            assert run([*command, "--out", str(out)]) == 2, command
            assert capsys.readouterr().err.startswith("error: ")


def test_failed_command_keeps_existing_out_file(tmp_path, capsys):
    out = tmp_path / "f"
    out.write_text("keep")
    assert run(["verify", "--p", "2", "--q", "5", "--r", "6", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "keep"


def test_oversized_verify_exits_2_before_any_engine_runs(monkeypatch, capsys):
    import templink.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("an engine ran on an oversized verification")

    for name in ("extremal_orbits", "range_triples", "_crossing_matrix"):
        monkeypatch.setattr(cli.census, name, never)
    for bounds in (
        ["--p", "3", "--q", "3", "--r", "301"],
        ["--p", "3", "--q", "3", "--r", "1001"],
        ["--p-max", "1000", "--q-max", "1000", "--r-max", "1000"],
    ):
        assert run(["verify", *bounds]) == 2, bounds
        assert "over the verify limit of 2,000" in capsys.readouterr().err


def test_verify_over_the_letter_budget_exits_2_before_ranking(monkeypatch, capsys):
    import templink.census as census

    def never(*args, **kwargs):
        raise AssertionError("built the ranking's arrays over the letter budget")

    # the ranking's first array build
    monkeypatch.setattr(census, "_successors", never)
    # 1,958 words pass the word limit, but their letter budget is 958 M
    assert run(["verify", "--p", "2", "--q", "41", "--r", "43"]) == 2
    assert "over the limit of 134,217,728" in capsys.readouterr().err
    # five words of 4,096 letters need 5 x 4,096 x 8,192 letters
    words = ["a" * k + "b" * (4_096 - k) for k in range(1, 6)]
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", *words]) == 2
    assert "167,772,160 letters" in capsys.readouterr().err


def test_oversized_report_exits_2_before_ranking(monkeypatch, capsys):
    import templink.census as census
    import templink.cli as cli

    successors = census._successors

    def never(*args, **kwargs):
        raise AssertionError("built the ranking's arrays for an oversized report")

    monkeypatch.setattr(census, "_successors", never)
    # 1,934 words pass the word limit and the letter budget, but make 1,871,145 reports
    assert run(["verify", "--p", "3", "--q", "3", "--r", "87", "--format", "json"]) == 2
    assert "1,871,145 pair reports, over the report limit of 200,000" in capsys.readouterr().err
    # (3, 3, 49), 623 words, is the largest (3, 3, r) family the limit admits
    assert census.check_family_bound(3, 3, 49) * 624 // 2 == 194_376 <= cli.MAX_REPORT_PAIRS
    assert census.check_family_bound(3, 3, 50) * 675 // 2 == 227_475 > cli.MAX_REPORT_PAIRS
    # the word limit's refusal comes first
    assert run(["verify", "--p", "3", "--q", "3", "--r", "301"]) == 2
    assert "over the verify limit of 2,000" in capsys.readouterr().err
    # explicit words are counted the same way, at the limit and one word past it
    monkeypatch.setattr(cli, "MAX_REPORT_PAIRS", 3)
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "ab", "aabb", "aab"]) == 2
    assert "3 words make 6 pair reports" in capsys.readouterr().err
    monkeypatch.setattr(census, "_successors", successors)
    assert run(["verify", "--p", "3", "--q", "3", "--r", "4", "ab", "aabb"]) == 0
    capsys.readouterr()


def test_verify_range_over_the_letter_budget_exits_2_before_any_triple_runs(monkeypatch, capsys):
    import templink.census as census

    def never(t):
        raise AssertionError(f"verified {t} in a range over the letter budget")

    monkeypatch.setattr(census, "verify_triple", never)
    assert run(["verify", "--p-max", "2", "--q-max", "41", "--r-max", "43", "--jobs", "1"]) == 2
    assert "958,447,640 letters" in capsys.readouterr().err


def test_extremal_lists_large_families_and_refuses_over_the_letter_budget(monkeypatch, capsys):
    from templink.kneading import Triple

    assert run(["extremal", "--p", "3", "--q", "3", "--r", "101", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2_599

    def never(*args, **kwargs):
        raise AssertionError("built a family word over the letter budget")

    # the syllables are read only after both refusals
    monkeypatch.setattr(Triple, "syllables", property(never))
    assert run(["extremal", "--p", "3", "--q", "3", "--r", "4001"]) == 2
    assert "over the limit of 134,217,728 letters" in capsys.readouterr().err


def test_oversized_kneading_table_exits_2_before_any_sequence_is_built(monkeypatch, capsys):
    import templink.kneading as kneading

    def never(*args, **kwargs):
        raise AssertionError("built a kneading sequence over the table budget")

    monkeypatch.setattr(kneading, "PeriodicSequence", never)
    triple = ["--p", "3", "--q", "3", "--r", "1000000000"]
    for argv in (
        ["admissible", *triple, "ab"],
        ["table", *triple],
        ["enumerate", *triple, "--max-len", "4"],
    ):
        assert run(argv) == 2, argv[0]
        assert "12,000,000,000 letters, over the limit of 16,384" in capsys.readouterr().err
    # lk and cr build no kneading data, so the table budget does not bound them
    assert run(["lk", *triple, "ab", "ab"]) == 0
    assert run(["cr", "ab", "aabb"]) == 0
    capsys.readouterr()


def test_empty_range_exits_2(capsys):
    assert run(["verify", "--p-max", "3", "--q-max", "3", "--r-max", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p <= 3, q <= 3, r <= 3" in err


def test_oversized_word_exits_2_before_any_engine_runs(monkeypatch, capsys):
    import templink.cli as cli

    assert len(cli._parse_word("a" * (cli.MAX_WORD_LEN - 1) + "b")) == cli.MAX_WORD_LEN

    def never(*args, **kwargs):
        raise AssertionError("an engine ran on an oversized word")

    engines = ("canonicalize", "template_linking", "word_crossing", "is_admissible", "enumerate_cuts")
    for name in engines:
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(cli.census, "verify_pairs", never)
    # each command parses the oversized word first, so not even canonicalize may run
    word = "ab" * (cli.MAX_WORD_LEN // 2) + "b"
    assert len(word) == cli.MAX_WORD_LEN + 1
    triple = ["--p", "3", "--q", "3", "--r", "4"]
    for argv in (
        ["cr", word, "ab"],
        ["lk", *triple, word, "ab"],
        ["cuts", word],
        ["admissible", *triple, word],
        ["verify", *triple, word],
    ):
        assert run(argv) == 2, argv[0]
        assert "exceeds the limit of 4,096" in capsys.readouterr().err


def test_no_p2_drops_exactly_the_p2_triples(capsys):
    from templink.census import range_triples, verify_range

    def triples(extra):
        args = ["verify", "--p-max", "4", "--q-max", "5", "--r-max", "7", "--jobs", "1"]
        assert run([*args, *extra, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["triples"]
        for row in rows:
            row.pop("elapsed_s")
        return rows

    main = verify_range(4, 5, 7, include_p2=False, jobs=1).as_dict()["triples"]
    for row in main:
        row.pop("elapsed_s")
    assert triples(["--no-p2"]) == main
    p2 = [(t.p, t.q, t.r) for t in range_triples(4, 5, 7) if t.p == 2]
    full = triples([])
    assert p2 and [(s["p"], s["q"], s["r"]) for s in full if s["p"] == 2] == p2
    assert [s for s in full if s["p"] > 2] == main


def test_json_reports_stable(capsys):
    args = ["verify", "--p", "3", "--q", "3", "--r", "4", "--format", "json"]
    assert run(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(args) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("elapsed_s", None)
    second.pop("elapsed_s", None)
    assert first == second


def test_range_output_independent_of_jobs(capsys):
    args = ["verify", "--p-max", "3", "--q-max", "4", "--r-max", "5"]
    outputs = {}
    for fmt in ("json", "csv"):
        for jobs in ("1", "2"):
            assert run([*args, "--jobs", jobs, "--format", fmt]) == 0
            outputs[fmt, jobs] = capsys.readouterr().out
    docs = [json.loads(outputs["json", jobs]) for jobs in ("1", "2")]
    for doc in docs:
        doc.pop("elapsed_s")
        for triple in doc["triples"]:
            triple.pop("elapsed_s")
    assert docs[0] == docs[1] and docs[0]["triples"]
    tables = [list(csv.reader(io.StringIO(outputs["csv", jobs]))) for jobs in ("1", "2")]
    header = tables[0][0]
    timing = header.index("elapsed_s")
    strip = lambda table: [row[:timing] + row[timing + 1 :] for row in table]
    assert strip(tables[0]) == strip(tables[1])
    assert all(list(triple) == header for triple in json.loads(outputs["json", "1"])["triples"])
