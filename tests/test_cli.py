import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from pathlib import Path
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from tabkit import allowable, cli, trees
from tabkit.cli import _SUITES, _TRANSFORMS, DEFAULT_MAX_OBJECTS, main
from tabkit.core import inversions
from tabkit.dyck import LabeledDyckPath, catalan
from tabkit.hecke import _grouped
from tabkit.tableaux import _first_column, _pct_rows, _row_order
from tabkit.trees import Node, ldyck_to_ltree


def image_rows(rows, sigma):
    """The rows of ``rt_to_pct(T, sigma)``, from T's rows."""
    return _pct_rows(rows, sigma, _first_column(rows), _row_order(sigma))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_enumerate_spct_json(capsys):
    report = run_json(capsys, "enumerate", "spct", "--shape", "2,2")
    assert report["command"] == "enumerate"
    assert report["parameters"]["shape"] == [2, 2]
    assert report["results"]["count"] == 4
    assert report["elapsed_seconds"] >= 0


def test_enumerate_with_type_restriction(capsys):
    report = run_json(
        capsys, "enumerate", "spct", "--shape", "2,2", "--sigma", "2 1"
    )
    assert report["results"]["count"] == 2


def test_enumerate_srt(capsys):
    report = run_json(capsys, "enumerate", "srt", "--shape", "2,2")
    assert report["results"]["count"] == 2


def test_enumerate_ldyck_and_ltree(capsys):
    assert run_json(capsys, "enumerate", "ldyck", "--n", "3")["results"]["count"] == 30
    assert run_json(capsys, "enumerate", "ltree", "--n", "3")["results"]["count"] == 30


def test_enumerate_csv(capsys):
    code, out, _ = run(
        capsys, "enumerate", "spct", "--shape", "2,2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["count"] == "4"


def test_enumerate_text(capsys):
    code, out, _ = run(
        capsys, "enumerate", "spct", "--shape", "2,2", "--format", "text"
    )
    assert code == 0
    assert "count" in out and "4" in out


def test_enumerate_list_file(capsys, tmp_path):
    target = tmp_path / "objects.json"
    report = run_json(
        capsys, "enumerate", "spct", "--shape", "1,1", "--list", str(target)
    )
    objects = json.loads(target.read_text())
    assert report["results"]["count"] == len(objects) == 2
    assert all("rows" in obj for obj in objects)


def test_enumerate_requires_the_right_flags(capsys):
    code, _, err = run(capsys, "enumerate", "spct")
    assert code == 2
    assert "--shape" in err
    code, _, err = run(capsys, "enumerate", "ldyck")
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("argv, flag", [
    (("enumerate", "srt", "--shape", "3,2", "--sigma", "1,2"), "--sigma"),
    (("enumerate", "ldyck", "--n", "3", "--sigma", "1"), "--sigma"),
    (("enumerate", "ldyck", "--n", "3", "--shape", "9"), "--shape"),
    (("enumerate", "ltree", "--n", "3", "--shape", "1"), "--shape"),
    (("enumerate", "spct", "--shape", "2,2", "--n", "3"), "--n"),
    (("enumerate", "srt", "--shape", "2,2", "--n", "0"), "--n"),
], ids=["srt-sigma", "ldyck-sigma", "ldyck-shape", "ltree-shape", "spct-n", "srt-n"])
def test_enumerate_refuses_flags_of_other_kinds(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: enumerate {argv[1]} does not take {flag}\n"


def test_bad_shape_is_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "spct", "--shape", "0,2")
    assert code == 2
    assert "positive" in err


def test_verify_suites_pass(capsys):
    for suite, flags in [
        ("hecke", ("--max-n", "3")),
        ("counts", ("--max-n", "3")),
        ("bijections", ("--n", "3", "--samples", "5")),
        ("classes", ("--max-size", "4")),
        ("pairs", ("--max-n", "3")),
    ]:
        report = run_json(capsys, "verify", suite, *flags)
        assert report["results"]["passed"] is True, suite


def test_verify_hecke_single_shape(capsys):
    report = run_json(capsys, "verify", "hecke", "--shape", "2,2")
    assert report["results"]["passed"] is True
    assert report["parameters"]["shape"] == "2,2"
    assert len(report["results"]["checks"]) == 1


def test_verify_hecke_refuses_a_shape_with_a_max_n(capsys):
    code, out, err = run(capsys, "verify", "hecke", "--shape", "2,2", "--max-n", "3")
    assert code == 2 and out == ""
    assert err == "error: verify hecke takes --shape or --max-n, not both\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "hecke", "--shape", ""), "empty composition"),
    (("enumerate", "spct", "--shape", ""), "empty composition"),
    (("enumerate", "spct", "--shape", "2,2", "--sigma", ""), "empty permutation"),
    (("map", "realize-pair", "--a", "", "--b", "1"), "empty permutation"),
], ids=["hecke-shape", "enumerate-shape", "enumerate-sigma", "map-a"])
def test_empty_flag_values_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_verify_hecke_reports_a_broken_image(capsys, monkeypatch):
    # every move lands on the row word of (4, 1)/(3, 2), which breaks the
    # triple condition (a row word cannot describe increasing rows)
    monkeypatch.setattr("tabkit.hecke._swap", lambda w, p: (0, 1, 1, 0))
    code, out, err = run(capsys, "verify", "hecke", "--shape", "2,2")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["passed"] is False
    assert "is not a valid standard tableau" in results["counterexample"]


def test_verify_classes_reports_a_failing_shape(capsys, monkeypatch):
    def broken(shape):
        if tuple(shape) == (2, 1):
            raise AssertionError("no classes")
        return _grouped(shape)

    monkeypatch.setattr("tabkit.hecke._grouped", broken)
    code, out, err = run(capsys, "verify", "classes", "--max-size", "3")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["passed"] is False
    assert results["counterexample"].startswith("shape 2,1:")
    # the shapes after the failing one are still checked
    checks = results["checks"]
    assert [row["shape"] for row in checks] == ["1", "2", "1,1", "3", "2,1", "1,2", "1,1,1"]
    assert [row["pass"] for row in checks] == [True] * 4 + [False] + [True] * 2


def test_verify_counts_reports_the_first_failing_size(capsys, monkeypatch):
    monkeypatch.setattr("tabkit.dyck.catalan", lambda n: 0)
    code, out, err = run(capsys, "verify", "counts", "--max-n", "2")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["passed"] is False
    assert results["counterexample"].startswith("n=1:")
    assert [row["pass"] for row in results["checks"]] == [False, False]


def test_verify_pairs_refuses_before_starting(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("tabkit.cli.verify_pairs", calls.append)
    # 1!^2 + 2!^2 + 3!^2 = 41 pair tests
    code, out, err = run(capsys, "verify", "pairs", "--max-n", "3", "--max-objects", "40")
    assert code == 2 and out == "" and calls == []
    assert err.startswith("refused: verify pairs up to n=3 needs 41 pair tests")
    monkeypatch.undo()
    report = run_json(capsys, "verify", "pairs", "--max-n", "3", "--max-objects", "41")
    assert report["results"]["passed"] is True


@pytest.mark.parametrize("kind", ["ldyck", "ltree"])
def test_enumerate_refuses_a_large_n_at_once(capsys, monkeypatch, kind):
    monkeypatch.delenv("TK_MAX_OBJECTS", raising=False)
    sizes = []
    monkeypatch.setattr("tabkit.dyck.factorial", lambda n: sizes.append(n) or factorial(n))
    code, out, err = run(capsys, "enumerate", kind, "--n", "300000")
    assert code == 2 and out == ""
    assert err.startswith(f"refused: enumerate {kind} passed {DEFAULT_MAX_OBJECTS} objects")
    assert sizes == []
    # 8! Cat(8) = 57,657,600 is still counted, and fits a cap of exactly that
    argv = ("enumerate", kind, "--n", "8", "--max-objects")
    code, out, err = run(capsys, *argv, "57657599")
    assert code == 2 and out == "" and sizes == [8]
    assert run_json(capsys, *argv, "57657600")["results"]["count"] == 57_657_600


def test_verify_pairs_refuses_a_large_n_at_once(capsys, monkeypatch):
    sizes = []
    monkeypatch.setattr("tabkit.cli.factorial", lambda n: sizes.append(n) or factorial(n))
    code, out, err = run(
        capsys, "verify", "pairs", "--max-n", "100000", "--max-objects", "1000"
    )
    assert code == 2 and out == ""
    # 1 + 4 + 36 + 576 + 14400 passes 1000 at n = 5, where the sum stops
    assert err.startswith("refused: verify pairs up to n=100000 needs 15017 pair tests")
    assert sizes == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("argv", [
    ("verify", "hecke", "--shape", "2,2,2,2,2", "--max-objects", "1"),
    ("verify", "hecke", "--shape", ",".join(["2"] * 40), "--max-objects", "1000"),
    ("verify", "hecke", "--max-n", "40", "--max-objects", "1000"),
    ("verify", "classes", "--max-size", "40", "--max-objects", "1000"),
    ("enumerate", "spct", "--shape", ",".join(["2"] * 7), "--max-objects", "1000"),
    # (2)^4 under the decreasing type: the 14 reverse tableaux of (2,2,2,2)
    ("enumerate", "spct", "--shape", "2,2,2,2", "--sigma", "4,3,2,1", "--max-objects", "13"),
    ("enumerate", "srt", "--shape", "2,2,2,2", "--max-objects", "13"),
    ("enumerate", "ldyck", "--n", "8", "--max-objects", "1000"),
    ("enumerate", "ltree", "--n", "8", "--max-objects", "1000"),
    # the transfers to n = 5 are charged 25,750 steps
    ("verify", "counts", "--max-n", "5", "--max-objects", "100"),
    # n = 10 adds 8,561,300 steps, past the default cap
    ("verify", "counts", "--max-n", "10", "--max-objects", str(DEFAULT_MAX_OBJECTS)),
    # SPCT((1)^8) holds 8! = 40320 tableaux
    ("verify", "bijections", "--n", "8", "--samples", "0", "--max-objects", "1000"),
    # no partition lam of size <= 7 gives more than l(lam)! f^lam = 7! = 5040
    # (T, sigma) cases, but all of them give 17,487
    ("verify", "bijections", "--n", "7", "--samples", "0", "--max-objects", "6000"),
], ids=["hecke-shape", "hecke-long-shape", "hecke-max-n", "classes",
        "enumerate-spct", "enumerate-spct-sigma", "enumerate-srt", "enumerate-ldyck",
        "enumerate-ltree", "counts", "counts-default-cap", "bijections",
        "bijections-total"])
def test_verify_suites_refuse_before_any_walk(capsys, monkeypatch, argv):
    def walk(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr("tabkit.tableaux._spct_walk", walk)
    monkeypatch.setattr("tabkit.hecke._spct_walk", walk)
    for name in ("enumerate_ldyck", "enumerate_ltrees", "edge_stats_counts"):
        monkeypatch.setattr(f"tabkit.cli.{name}", walk)
    # the path round trips of ``verify bijections`` walk and draw in trees,
    # and the counts of ``verify counts`` transfer, walk and recur there
    for name in ("enumerate_ldyck", "random_ldyck", "enumerate_dyck",
                 "two_column_census", "edge_stats_counts"):
        monkeypatch.setattr(f"tabkit.trees.{name}", walk)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"refused: {argv[0]} {argv[1]} passed {argv[-1]} objects")


def test_verify_hecke_is_charged_its_relation_checks(capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work started")

    # one row of 2,000 cells: C(2000, 2) = 1,999,000 checks on its one
    # tableau, refused before the shape is counted or walked
    monkeypatch.setattr("tabkit.cli.count_spct", work)
    monkeypatch.setattr("tabkit.hecke._spct_walk", work)
    code, out, err = run(capsys, "verify", "hecke", "--shape", "2000", "--max-objects", "1")
    assert code == 2 and out == ""
    assert err.startswith("refused: verify hecke passed 1 objects")
    monkeypatch.undo()
    # (2, 2): 4 tableaux, C(4, 2) = 6 relations on each
    argv = ("verify", "hecke", "--shape", "2,2", "--max-objects")
    code, out, err = run(capsys, *argv, "23")
    assert code == 2 and out == ""
    assert err.startswith("refused: verify hecke passed 23 objects")
    assert run_json(capsys, *argv, "24")["results"]["checks"] == [
        {"shape": "2,2", "tableaux": 4, "checks": 24, "pass": True}]
    # the charge is the checks made: C(m, 2) on each tableau of size m
    rows = run_json(capsys, "verify", "hecke", "--max-n", "5")["results"]["checks"]
    for row in rows:
        m = sum(map(int, row["shape"].split(",")))
        assert row["checks"] == row["tableaux"] * (m * (m - 1) // 2), row


def test_verify_counts_counts_past_listing(capsys, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("a listing started")

    monkeypatch.delenv("TK_MAX_OBJECTS", raising=False)
    monkeypatch.setattr("tabkit.tableaux._spct_walk", walk)
    monkeypatch.setattr("tabkit.hecke._spct_walk", walk)
    for name in ("enumerate_ldyck", "enumerate_ltrees"):
        monkeypatch.setattr(f"tabkit.cli.{name}", walk)
        monkeypatch.setattr(f"tabkit.trees.{name}", walk)
    # 9! Cat(9) = 1,764,322,560 paths, and as many trees: counted, not listed
    report = run_json(capsys, "verify", "counts", "--max-n", "9")
    assert report["results"]["passed"] is True
    rows = report["results"]["checks"]
    assert [row["n"] for row in rows] == list(range(1, 10))
    for row in rows:
        n = row["n"]
        assert row["spct"] == row["ldyck"] == row["ltree"] == factorial(n) * catalan(n), row
        assert row["classes"] == (n + 1) ** (n - 1), row


def test_verify_counts_is_charged_the_transfer_bounds(capsys):
    # 7 + 108 + 830 + 4540 + 20265 transfer steps for n = 1..5
    argv = ("verify", "counts", "--max-n", "5")
    code, out, err = run(capsys, *argv, "--max-objects", "25749")
    assert code == 2 and out == ""
    assert err.startswith("refused: verify counts passed 25749 objects")
    report = run_json(capsys, *argv, "--max-objects", "25750")
    assert report["results"]["passed"] is True


@pytest.mark.parametrize("argv, flag", [
    (("verify", "bijections", "--max-n", "8"), "--max-n"),
    (("verify", "pairs", "--n", "9"), "--n"),
    (("verify", "counts", "--max-size", "9"), "--max-size"),
    (("verify", "counts", "--shape", "2,2"), "--shape"),
    (("verify", "classes", "--samples", "5"), "--samples"),
    (("verify", "hecke", "--n", "3"), "--n"),
], ids=["bijections-max-n", "pairs-n", "counts-max-size", "counts-shape",
        "classes-samples", "hecke-n"])
def test_verify_refuses_flags_of_other_suites(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: verify {argv[1]} does not take {flag}\n"


# a valid value for each flag that some choice requires
REQUIRED_VALUES = {"shape": "2,2", "n": "2", "infile": "-", "sigma": "1 2", "a": "1 2",
                   "b": "2 1"}


def required_argv(takes, but):
    """The flags ``takes`` requires, but ``but``, each with a valid value."""
    return [arg for dest, default in takes.items() if default is ... and dest != but
            for arg in (cli._FLAGS[dest].option, REQUIRED_VALUES[dest])]


def test_every_flag_is_taken_refused_or_required_as_the_table_declares(capsys):
    """Each flag of each command's parser, on each choice: refused by name if
    the choice does not take it, reported missing (exit 2 from ``main``, not
    a ``SystemExit``) if the choice requires it, and refused below zero if
    it is a count.  Every refusal comes before any input is read."""
    for name, (*_, choices) in cli._COMMANDS.items():
        for choice, takes in choices.items():
            takes = cli._COMMON | takes
            for dest in (*cli._SHARED, *cli._HELP[name]):
                option = cli._FLAGS[dest].option
                argv = (name, choice, *required_argv(takes, dest))
                if dest not in takes:
                    expected = f"error: {name} {choice} does not take {option}\n"
                    assert run(capsys, *argv, option, "1") == (2, "", expected)
                    continue
                if takes[dest] is ...:
                    expected = f"error: {name} {choice} requires {option}\n"
                    assert run(capsys, *argv) == (2, "", expected)
                if cli._FLAGS[dest].count:
                    expected = f"error: {option} must be nonnegative: -1\n"
                    assert run(capsys, *argv, option, "-1") == (2, "", expected)


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_help_names_the_choices_that_take_each_flag(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "500")  # no help line wraps
    with pytest.raises(SystemExit) as leave:
        main([name, "--help"])
    assert leave.value.code == 0
    # each option's entry: its first line and, for a long option, the next
    entries = re.split(r"\n  (?=-)", capsys.readouterr().out.split("options:\n", 1)[1])
    helps = {entry.split()[0].rstrip(","): " ".join(entry.split()) for entry in entries}
    *_, choices = cli._COMMANDS[name]
    for dest in cli._HELP[name]:
        takers = [choice for choice, takes in choices.items() if dest in takes]
        assert helps[cli._FLAGS[dest].option].endswith(f"({', '.join(takers)})")
    # --seed is shown only by the command that takes it
    if name == "verify":
        assert helps["--seed"].endswith("(verify bijections)")
    else:
        assert "--seed" not in helps


@pytest.mark.parametrize("argv, parameters", [
    (("counts",), {"suite": "counts", "max_n": 4}),
    (("classes",), {"suite": "classes", "max_size": 5}),
    (("bijections",), {"suite": "bijections", "n": 4, "seed": 0}),
    (("pairs",), {"suite": "pairs", "max_n": 4}),
    (("hecke",), {"suite": "hecke", "max_n": 4}),
    (("hecke", "--shape", "2,2"), {"suite": "hecke", "shape": "2,2"}),
], ids=["counts", "classes", "bijections", "pairs", "hecke", "hecke-shape"])
def test_verify_reports_the_sizes_a_default_run_used(capsys, argv, parameters):
    report = run_json(capsys, "verify", *argv)
    assert report["parameters"] == parameters
    assert report["results"]["passed"] is True


def test_verify_bijections_draws_200_samples_by_default(capsys):
    rows = run_json(capsys, "verify", "bijections", "--n", "5")["results"]["checks"]
    assert [row["cases"] for row in rows if row["check"] == "sampled"] == [200]


def test_enumerate_counts_without_walking(capsys, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr("tabkit.tableaux._spct_walk", walk)
    report = run_json(capsys, "enumerate", "spct", "--shape", ",".join(["2"] * 7))
    assert report["results"]["count"] == 2_162_160
    report = run_json(capsys, "enumerate", "srt", "--shape", "4,3,1")
    assert report["results"]["count"] == 70


def test_enumerate_srt_counts_by_the_hook_lengths(capsys, monkeypatch):
    def transfer(*args):
        raise AssertionError("count_spct was called")

    monkeypatch.setattr("tabkit.cli.count_spct", transfer)
    # f^(3,2) = 5!/(4*3*1*2*1) = 5
    argv = ("enumerate", "srt", "--shape", "3,2")
    code, out, err = run(capsys, *argv, "--max-objects", "4")
    assert code == 2 and out == ""
    assert err.startswith("refused: enumerate srt passed 4 objects")
    assert run_json(capsys, *argv, "--max-objects", "5")["results"]["count"] == 5


@pytest.mark.parametrize("kind", ["spct", "srt"])
@pytest.mark.parametrize("shape", ["99999999999999999999", ",".join(["1"] * 10_000)],
                         ids=["one-long-row", "many-rows"])
def test_enumerate_refuses_a_large_shape_before_counting(capsys, monkeypatch, kind, shape):
    # the count walks one level per cell, and the transfer's first level
    # holds l copies of the l - 1 other rows: both are charged first
    monkeypatch.delenv("TK_MAX_OBJECTS", raising=False)

    def count(*args, **kwargs):
        raise AssertionError("the count started")

    monkeypatch.setattr("tabkit.cli.count_spct", count)
    monkeypatch.setattr("tabkit.cli.count_srt", count)
    start = perf_counter()
    code, out, err = run(capsys, "enumerate", kind, "--shape", shape)
    assert perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == (f"refused: enumerate {kind} passed {DEFAULT_MAX_OBJECTS} objects; "
                   "raise --max-objects or TK_MAX_OBJECTS\n")


def test_enumerate_refuses_a_listing_before_writing_it(capsys, tmp_path):
    target = tmp_path / "objects.json"
    argv = ("enumerate", "ltree", "--n", "3", "--list", str(target))
    code, out, err = run(capsys, *argv, "--max-objects", "29")
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("refused: enumerate ltree passed 29 objects")
    report = run_json(capsys, *argv, "--max-objects", "30")
    assert report["results"]["count"] == len(json.loads(target.read_text())) == 30


@pytest.mark.parametrize("argv", [
    ("verify", "counts", "--max-n", "0"),
    ("verify", "bijections", "--n", "0"),
], ids=["counts", "bijections"])
def test_verify_suites_with_nothing_to_list_pass_a_zero_cap(capsys, argv):
    report = run_json(capsys, *argv, "--max-objects", "0")
    assert report["results"] == {"checks": [], "passed": True}


def test_verify_pairs_runs_no_pattern_scan(capsys, monkeypatch):
    counted = {}
    for name in ("is_2112_avoiding", "is_123312_avoiding", "is_allowable_pair",
                 "_pair_bits", "_triple_bits"):
        counted[name] = mock.Mock(wraps=getattr(allowable, name))
        monkeypatch.setattr(allowable, name, counted[name])
    report = run_json(capsys, "verify", "pairs", "--max-n", "4")
    assert report["results"]["passed"] is True
    # the 1 + 4 + 36 + 576 candidates are tested on bit tables built once
    # per permutation, 1 + 2 + 6 + 24 of them; no pair is scanned
    assert {name: f.call_count for name, f in counted.items()} == {
        "is_2112_avoiding": 0, "is_123312_avoiding": 0, "is_allowable_pair": 0,
        "_pair_bits": 33, "_triple_bits": 33,
    }


def test_text_and_csv_renderings(capsys):
    code, out, _ = run(capsys, "verify", "counts", "--max-n", "2", "--format", "text")
    assert code == 0
    *body, elapsed = out.splitlines()
    assert body == [
        "command: verify",
        "parameters: suite=counts max_n=2",
        "n  spct  ldyck  ltree  expected_objects  classes  expected_classes  pass",
        "1  1     1      1      1                 1        1                 True",
        "2  4     4      4      4                 3        3                 True",
        "passed: True",
    ]
    assert elapsed.startswith("elapsed: ") and elapsed.endswith("s")

    code, out, _ = run(capsys, "verify", "counts", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert out == (
        "n,spct,ldyck,ltree,expected_objects,classes,expected_classes,pass\r\n"
        "1,1,1,1,1,1,1,True\r\n"
        "2,4,4,4,4,3,3,True\r\n"
    )

    code, out, _ = run(capsys, "verify", "hecke", "--max-n", "0", "--format", "text")
    assert code == 0
    assert out.splitlines()[:-1] == [
        "command: verify",
        "parameters: suite=hecke max_n=0",
        "(no rows)",
        "passed: True",
    ]


def test_stats_quadruple(capsys):
    report = run_json(capsys, "stats", "quadruple", "--n", "3")
    assert report["results"]["equal"] is True
    assert report["results"]["objects_per_side"] == 30
    distribution = report["results"]["distribution"]
    assert sum(row["tableaux"] for row in distribution) == 30


def test_stats_quadruple_counts_past_listing(capsys):
    # both sides are counted, so n = 8 fits under the default cap, which
    # 2 * 8! * Cat(8) listed objects passed
    results = run_json(capsys, "stats", "quadruple", "--n", "8")["results"]
    assert results["equal"] is True
    assert results["objects_per_side"] == 57_657_600
    distribution = results["distribution"]
    assert sum(row["tableaux"] for row in distribution) == 57_657_600
    assert sum(row["trees"] for row in distribution) == 57_657_600


def test_stats_quadruple_refuses_before_any_work(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("work started")

    for name in ("factorial", "labeled_catalan", "descent_quadruple_counts",
                 "edge_stats_counts"):
        monkeypatch.setattr(f"tabkit.cli.{name}", work)
    code, out, err = run(
        capsys, "stats", "quadruple", "--n", "1000000", "--max-objects", "1000"
    )
    assert code == 2 and out == ""
    assert err == (
        "refused: stats quadruple at n=1000000 needs more than 1000 transfer steps\n"
    )
    monkeypatch.undo()
    # the transfer at n = 3 visits at most 83 states of at most 10 quadruples
    code, out, _ = run(capsys, "stats", "quadruple", "--n", "3", "--max-objects", "829")
    assert code == 2 and out == ""
    report = run_json(capsys, "stats", "quadruple", "--n", "3", "--max-objects", "830")
    assert report["results"]["equal"] is True
    # under the default cap n = 10 runs (8,561,300 steps) and n = 11 does not
    code, out, err = run(capsys, "stats", "quadruple", "--n", "11")
    assert code == 2 and out == ""
    assert err == (
        "refused: stats quadruple at n=11 needs more than 10000000 transfer steps\n"
    )


def test_map_realize_pair(capsys):
    report = run_json(
        capsys, "map", "realize-pair", "--a", "1 2", "--b", "1 2"
    )
    assert report["results"]["result"]["rows"] == [[2, 1], [4, 3]]


def test_map_realize_pair_refuses_before_any_work(capsys, monkeypatch):
    realized, counted = [], []
    monkeypatch.setattr("tabkit.cli.realize_sct", lambda a, b: realized.append(a))
    monkeypatch.setattr("tabkit.cli.inversions",
                        lambda p: counted.append(p) or inversions(p))
    # C(4, 3) = 4 triples, then (l(a) + 2) * 4^2 = 64 for the 4 columns
    argv = ("map", "realize-pair", "--a", "2 1 4 3", "--b", "4 3 2 1", "--max-objects")
    code, out, err = run(capsys, *argv, "67")
    assert (code, out, realized, counted) == (2, "", [], [(2, 1, 4, 3)])
    assert err == ("refused: map realize-pair passed 67 objects; "
                   "raise --max-objects or TK_MAX_OBJECTS\n")
    # below the scan's 4 triples l(a) is not counted
    counted.clear()
    code, out, _ = run(capsys, *argv, "3")
    assert (code, out, realized, counted) == (2, "", [], [])
    monkeypatch.undo()
    report = run_json(capsys, *argv, "68")
    assert report["results"]["result"]["rows"] == [
        [9, 8, 7, 6], [10, 5, 4, 3], [14, 13, 12, 2], [16, 15, 11, 1]]


@pytest.mark.parametrize("argv, flag", [
    (("map", "pct-to-rt", "--in", "-", "--sigma", "1 2"), "--sigma"),
    (("map", "ltree-to-ldyck", "--in", "-", "--a", "1"), "--a"),
    (("map", "rt-to-pct", "--in", "-", "--sigma", "1", "--b", "1"), "--b"),
    (("map", "realize-pair", "--a", "1 2", "--b", "2 1", "--in", "-"), "--in"),
    (("map", "realize-pair", "--a", "1 2", "--b", "2 1", "--sigma", "1"), "--sigma"),
], ids=["pct-to-rt-sigma", "ltree-to-ldyck-a", "rt-to-pct-b", "realize-pair-in",
        "realize-pair-sigma"])
def test_map_refuses_flags_of_other_transforms(capsys, argv, flag):
    # refused before any input is read
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: map {argv[1]} does not take {flag}\n"


def test_map_pipeline_via_files(capsys, tmp_path):
    tableau = tmp_path / "t.json"
    tableau.write_text(json.dumps({"rows": [[2, 1], [4, 3]]}))
    path_file = tmp_path / "d.json"

    report = run_json(
        capsys, "map", "spct-to-ldyck", "--in", str(tableau), "--out", str(path_file)
    )
    assert report["results"]["result"]["steps"] == ["U", "D1", "U", "D2"]

    report = run_json(capsys, "map", "ldyck-to-ltree", "--in", str(path_file))
    assert report["results"]["result"] == {"label": 2, "right": {"label": 1}}


def test_map_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"rows": [[2, 1], [4, 3]]}))
    )
    report = run_json(capsys, "map", "pct-to-rt", "--in", "-")
    assert report["results"]["result"]["reverse"] is True


def map_stdin(capsys, monkeypatch, transform, data):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    return run(capsys, "map", transform, "--in", "-")


def test_map_non_list_shape_is_usage_error(capsys, monkeypatch):
    code, out, err = map_stdin(
        capsys, monkeypatch, "pct-to-rt", {"shape": 3, "rows": [[1]]}
    )
    assert code == 2 and out == ""
    assert err.startswith("error: declared shape 3")


@pytest.mark.parametrize("argv", [["pct-to-rt"], ["rt-to-pct", "--sigma", "1"]])
def test_map_takes_only_a_boolean_reverse_marker(capsys, monkeypatch, argv):
    data = {"rows": [[2, 1]], "reverse": "false"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    code, out, err = run(capsys, "map", *argv, "--in", "-")
    assert code == 2 and out == ""
    assert err == "error: \"reverse\" must be a boolean: 'false'\n"


def test_map_takes_only_integer_shape_entries(capsys, monkeypatch):
    code, out, err = map_stdin(
        capsys, monkeypatch, "pct-to-rt", {"rows": [[2, 1]], "shape": [2.0]}
    )
    assert code == 2 and out == ""
    assert err == 'error: "shape" entries must be integers: [2.0]\n'


def test_map_rejects_boolean_entries(capsys, monkeypatch):
    code, out, err = map_stdin(capsys, monkeypatch, "pct-to-rt", {"rows": [[True]]})
    assert code == 2 and out == ""
    assert "not a positive integer: True" in err


def test_map_rejects_boolean_labels(capsys, monkeypatch):
    code, out, err = map_stdin(
        capsys, monkeypatch, "ltree-to-ldyck", {"label": True}
    )
    assert code == 2 and out == ""
    assert "label must be an integer: True" in err


def test_map_rejects_non_integer_semi_length(capsys, monkeypatch):
    for n in (True, 1.0):
        code, out, err = map_stdin(
            capsys, monkeypatch, "ldyck-to-spct", {"steps": ["U", "D1"], "n": n}
        )
        assert code == 2 and out == ""
        assert err == f'error: "n" must be an integer: {n!r}\n'


def test_map_deep_json_is_usage_error(capsys, monkeypatch):
    depth = 100_000
    deep = '{"label": 1, "left": ' * depth + '{"label": 2}' + "}" * depth
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    code, out, err = run(capsys, "map", "ltree-to-ldyck", "--in", "-")
    assert code == 2 and out == ""
    assert err == "error: input JSON nests too deeply\n"


def test_map_too_deep_result_is_usage_error(capsys, monkeypatch):
    # the tree is built, but its JSON nests 1,500 levels deep
    steps = ["U"] * 1500 + [f"D{i}" for i in range(1, 1501)]
    code, out, err = map_stdin(capsys, monkeypatch, "ldyck-to-ltree", {"steps": steps})
    assert code == 2 and out == ""
    assert err == "error: the object nests too deeply to process\n"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_map_prints_nothing_of_a_result_too_deep_to_encode(capsys, monkeypatch, fmt):
    steps = ["U"] * 1500 + [f"D{i}" for i in range(1, 1501)]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"steps": steps})))
    code, out, err = run(capsys, "map", "ldyck-to-ltree", "--in", "-", "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: the object nests too deeply to process\n"


def test_map_writes_no_file_for_a_result_too_deep_to_encode(capsys, monkeypatch, tmp_path):
    # the tree of the 1,500-deep left path is built and turned into nested
    # dicts, but ``json`` cannot encode them at the default recursion limit
    target = tmp_path / "tree.json"
    steps = ["U"] * 1500 + [f"D{i}" for i in range(1, 1501)]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"steps": steps})))
    code, out, err = run(capsys, "map", "ldyck-to-ltree", "--in", "-", "--out", str(target))
    assert code == 2 and out == ""
    assert err == "error: the object nests too deeply to process\n"
    assert not target.exists()


def test_map_bad_tree_labels_error_is_short(capsys, monkeypatch):
    comb = {"label": 1}
    for _ in range(499):
        comb = {"label": 1, "right": comb}
    code, out, err = map_stdin(capsys, monkeypatch, "ltree-to-ldyck", comb)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 100
    assert "1..500" in err


def test_map_empty_path_is_usage_error(capsys, monkeypatch):
    code, out, err = map_stdin(capsys, monkeypatch, "ldyck-to-ltree", {"steps": []})
    assert code == 2 and out == ""
    assert err == "error: need at least one node: 0\n"


def test_map_empty_path_has_no_tableau(capsys, monkeypatch):
    code, out, err = map_stdin(capsys, monkeypatch, "ldyck-to-spct", {"steps": []})
    assert code == 2 and out == ""
    assert err == "error: need at least one row: 0\n"


JSON_KEYS = ("steps", "n", "rows", "shape", "reverse", "label", "left", "right")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6)
    | st.sampled_from(["U", "D", "D1", "D2", "D3", "", "x"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS), children, max_size=4),
    max_leaves=12,
)


@pytest.mark.parametrize("transform", sorted(_TRANSFORMS))
@given(
    data=st.dictionaries(st.sampled_from(JSON_KEYS), json_values, max_size=4)
    | json_values,
)
@example(data={"steps": []})  # the empty path: no tree to build, so exit 2
def test_map_fuzz_exits_0_or_2_with_one_line(transform, data):
    argv = ["map", transform, "--in", "-"]
    if transform == "rt-to-pct":
        argv += ["--sigma", "1"]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(data))), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()


# small values, negatives included, so that every run is quick and a few
# are usage errors; shapes stay at size 5 or less
flag_values = st.integers(-1, 6).map(str)
shape_values = st.sampled_from(["1", "2,1", "1,2,2", "2,2,1", "0", "-1", "a", ""])


@pytest.mark.parametrize("suite", sorted(_SUITES))
@given(
    flags=st.dictionaries(
        st.sampled_from(["--max-n", "--n", "--max-size", "--samples", "--seed"]),
        flag_values,
        max_size=3,
    ),
    shape=st.none() | shape_values,
    cap=st.integers(0, 300),
)
def test_verify_fuzz_exits_0_1_or_2_with_one_line(suite, flags, shape, cap):
    argv = ["verify", suite, "--max-objects", str(cap)]
    for flag, value in flags.items():
        argv += [flag, value]
    if shape is not None:
        argv += ["--shape", shape]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@given(
    kind=st.sampled_from(["spct", "srt", "ldyck", "ltree"]),
    shape=st.none() | shape_values | st.sampled_from(["3,1,2", "2,2,2", "1,1,1,1"]),
    sigma=st.none() | st.sampled_from(["1", "2,1", "1,3,2", "3,1,2", "1,1", "0", "x", ""]),
    n=st.none() | flag_values,
    cap=st.none() | st.integers(0, 300).map(str),
)
def test_enumerate_fuzz_exits_0_or_2_with_one_line(kind, shape, sigma, n, cap):
    # nothing is listed, so every count, capped or not, is quick
    argv = ["enumerate", kind]
    for flag, value in (("--shape", shape), ("--sigma", sigma), ("--n", n),
                        ("--max-objects", cap)):
        if value is not None:
            argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code)
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


@given(
    n=st.integers(-1, 7) | st.sampled_from([10**6, 10**30]),
    cap=st.none() | st.integers(0, 5000),
)
def test_stats_fuzz_exits_0_1_or_2_with_one_line(n, cap):
    argv = ["stats", "quadruple", "--n", str(n)]
    if cap is not None:
        argv += ["--max-objects", str(cap)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def test_map_rt_to_pct_needs_sigma(capsys, tmp_path):
    source = tmp_path / "rt.json"
    source.write_text(
        json.dumps({"rows": [[4, 2], [3, 1]], "reverse": True})
    )
    code, _, err = run(capsys, "map", "rt-to-pct", "--in", str(source))
    assert code == 2 and "--sigma" in err
    # under type 21 the larger first-column entry stays in row 1, so this
    # reverse tableau is its own image
    report = run_json(
        capsys, "map", "rt-to-pct", "--in", str(source), "--sigma", "2 1"
    )
    assert report["results"]["result"]["rows"] == [[4, 2], [3, 1]]
    report = run_json(
        capsys, "map", "rt-to-pct", "--in", str(source), "--sigma", "1 2"
    )
    assert report["results"]["result"]["rows"] == [[3, 2], [4, 1]]


def test_map_refuses_invalid_shape_bijection_input(capsys, monkeypatch):
    # rows increase: not a valid PCT
    code, out, err = map_stdin(capsys, monkeypatch, "pct-to-rt", {"rows": [[1, 2], [4, 3]]})
    assert code == 2 and out == "" and err.startswith("error:")
    for data in ({"rows": [[3, 4], [2, 1]], "reverse": True},  # row increases
                 {"rows": [[4, 3], [2, 1]]}):  # not marked reverse
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        code, out, err = run(capsys, "map", "rt-to-pct", "--in", "-", "--sigma", "1 2")
        assert code == 2 and out == "" and err.startswith("error:")


def test_map_names_one_violation_of_a_long_invalid_pct(capsys, monkeypatch):
    # every one of 20,000 rows increases: one short line, not every message
    rows = [[2 * i - 1, 2 * i] for i in range(1, 20_001)]
    code, out, err = map_stdin(capsys, monkeypatch, "pct-to-rt", {"rows": rows})
    assert code == 2 and out == ""
    assert err == ("error: not a valid PCT: row 1 increases from column 1 to 2 "
                   "(and 19999 more)\n")


def test_map_rejects_a_long_pct_with_one_reversed_row_quickly(capsys, monkeypatch):
    # the two-column rectangle of 10,000 rows with row 5,001 reversed: the
    # pairwise listing of violations took tens of seconds
    rows = [[20_000 - 2 * i, 19_999 - 2 * i] for i in range(10_000)]
    rows[5_000].reverse()
    start = perf_counter()
    code, out, err = map_stdin(capsys, monkeypatch, "pct-to-rt", {"rows": rows})
    assert perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == "error: not a valid PCT: row 5001 increases from column 1 to 2\n"


def test_map_type_mismatch_is_usage_error(capsys, tmp_path):
    source = tmp_path / "rt.json"
    source.write_text(json.dumps({"rows": [[4, 2], [3, 1]], "reverse": True}))
    code, _, err = run(capsys, "map", "spct-to-ldyck", "--in", str(source))
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "map", "spct-to-ldyck", "--in", "/nonexistent.json")
    assert code == 2


def test_guard_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("TK_MAX_OBJECTS", "5")
    code, _, err = run(capsys, "enumerate", "spct", "--shape", "2,2,2")
    assert code == 2
    assert "TK_MAX_OBJECTS" in err
    # an explicit flag wins over the environment
    code, _, _ = run(
        capsys, "enumerate", "spct", "--shape", "2,2,2", "--max-objects", "100"
    )
    assert code == 0


def test_negative_env_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("TK_MAX_OBJECTS", "-1")
    code, out, err = run(capsys, "enumerate", "spct", "--shape", "2,2")
    assert code == 2 and out == ""
    assert err == "error: TK_MAX_OBJECTS must be nonnegative: -1\n"


@pytest.mark.parametrize("argv, total, shapes", [
    # the 7 shapes of sizes 1, 2 and 3 hold 1 + 3 + 11 = 15 tableaux; hecke
    # checks max(1, C(m, 2)) relations on each of size m: 1 + 3 + 11 * 3 = 37
    (("verify", "hecke", "--max-n", "3"), 37, 7),
    (("verify", "classes", "--max-size", "3"), 15, 7),
    # the 31 shapes of size <= 5 hold 15 + 53 + 301 = 369 tableaux, and
    # 37 + 53 * 6 + 301 * 10 = 3,365 relation checks
    (("verify", "hecke", "--max-n", "5"), 3365, 31),
    # and the 32 of size 6 hold 2,001 more tableaux
    (("verify", "classes", "--max-size", "6"), 2370, 63),
], ids=["hecke", "classes", "hecke-5", "classes-6"])
def test_verify_suites_cap_tableaux_not_shapes(capsys, argv, total, shapes):
    code, out, err = run(capsys, *argv, "--max-objects", str(total - 1))
    assert code == 2 and out == ""
    assert err.startswith(f"refused: verify {argv[1]} passed {total - 1} objects")
    report = run_json(capsys, *argv, "--max-objects", str(total))
    assert report["results"]["passed"] is True
    assert len(report["results"]["checks"]) == shapes


def test_default_guard_value():
    assert DEFAULT_MAX_OBJECTS == 10_000_000


def test_seed_changes_samples(capsys):
    first = run_json(
        capsys, "verify", "bijections", "--n", "5", "--samples", "3", "--seed", "1"
    )
    second = run_json(
        capsys, "verify", "bijections", "--n", "5", "--samples", "3", "--seed", "2"
    )
    assert first["results"]["passed"] and second["results"]["passed"]
    assert first["parameters"]["seed"] == 1
    assert second["parameters"]["seed"] == 2


def test_verify_bijections_reports_its_default_seed(capsys):
    report = run_json(capsys, "verify", "bijections", "--n", "5", "--samples", "3")
    assert report["parameters"]["seed"] == 0
    again = run_json(capsys, "verify", "bijections", "--n", "5", "--samples", "3",
                     "--seed", "0")
    assert again["results"]["checks"] == report["results"]["checks"]


@pytest.mark.parametrize("argv, name", [
    (("verify", "counts", "--max-n", "2"), "verify counts"),
    (("verify", "hecke", "--max-n", "2"), "verify hecke"),
    (("verify", "classes", "--max-size", "2"), "verify classes"),
    (("verify", "pairs", "--max-n", "2"), "verify pairs"),
    (("enumerate", "ldyck", "--n", "2"), "enumerate ldyck"),
    (("stats", "quadruple", "--n", "2"), "stats quadruple"),
    (("map", "realize-pair", "--a", "1 2", "--b", "2 1"), "map realize-pair"),
], ids=["counts", "hecke", "classes", "pairs", "enumerate", "stats", "map"])
def test_only_the_sampling_command_takes_a_seed(capsys, argv, name):
    code, out, err = run(capsys, *argv, "--seed", "7")
    assert code == 2 and out == ""
    assert err == f"error: {name} does not take --seed\n"
    # without the flag nothing reports a seed
    assert "seed" not in run_json(capsys, *argv)["parameters"]


def test_negative_sample_count_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "bijections", "--samples", "-3")
    assert code == 2 and out == ""
    assert err == "error: --samples must be nonnegative: -3\n"


@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "hecke", "--max-n", "-2"), "--max-n", -2),
    (("verify", "counts", "--max-n", "-1"), "--max-n", -1),
    (("verify", "pairs", "--max-n", "-1"), "--max-n", -1),
    (("verify", "bijections", "--n", "-5"), "--n", -5),
    (("verify", "classes", "--max-size", "-1"), "--max-size", -1),
    (("enumerate", "spct", "--shape", "2,2", "--max-objects", "-1"), "--max-objects", -1),
], ids=["hecke", "counts", "pairs", "bijections", "classes", "max-objects"])
def test_negative_size_is_usage_error(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be nonnegative: {value}\n"


def test_stats_quadruple_needs_a_positive_n(capsys):
    code, out, err = run(capsys, "stats", "quadruple", "--n", "0")
    assert code == 2 and out == ""
    assert err == "error: --n must be at least 1: 0\n"


def test_verify_bijections_refuses_its_samples_before_starting(capsys, monkeypatch):
    calls = []
    for name in ("enumerate_srt", "_pct_rows"):
        monkeypatch.setattr(f"tabkit.tableaux.{name}", lambda *args: calls.append(args))
    # sizes 5 and 6 draw 400 samples each
    argv = ("verify", "bijections", "--n", "6", "--samples", "400")
    code, out, err = run(capsys, *argv, "--max-objects", "799")
    assert code == 2 and out == "" and calls == []
    assert err.startswith("refused: verify bijections up to n=6 draws 800 samples")
    # then the 2,370 (T, sigma) cases of size <= 6 and the 1 + 4 + 30 + 336
    # labeled paths of size <= 4: 800 + 2370 + 371 = 3541 objects
    code, out, err = run(capsys, *argv, "--max-objects", "3540")
    assert code == 2 and out == "" and calls == []
    assert err.startswith("refused: verify bijections passed 3540 objects")
    monkeypatch.undo()
    report = run_json(capsys, *argv, "--max-objects", "3541")
    assert report["results"]["passed"] is True


def test_verify_bijections_refuses_n_10_without_counting_shapes(capsys, monkeypatch):
    calls = []
    monkeypatch.delenv("TK_MAX_OBJECTS", raising=False)
    monkeypatch.setattr("tabkit.tableaux.count_spct", lambda *args: calls.append(args))
    # 371 paths and 13,903,448 (T, sigma) cases of size <= 10, from the
    # hook-length formula
    code, out, err = run(capsys, "verify", "bijections", "--n", "10", "--samples", "0")
    assert code == 2 and out == "" and calls == []
    assert err.startswith(f"refused: verify bijections passed {DEFAULT_MAX_OBJECTS} objects")


@pytest.mark.parametrize("argv", [
    ("verify", "hecke", "--max-n", "10"),
    ("verify", "classes", "--max-size", "10"),
], ids=["hecke", "classes"])
def test_verify_pct_suites_refuse_size_10_without_counting_shapes(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.delenv("TK_MAX_OBJECTS", raising=False)
    monkeypatch.setattr("tabkit.cli.count_spct", lambda *args: calls.append(args))
    # 13,903,448 standard PCTs of size <= 10, from the hook-length formula
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and calls == []
    assert err.startswith(f"refused: {argv[0]} {argv[1]} passed {DEFAULT_MAX_OBJECTS} objects")


def test_verify_bijections_fails_a_row_on_an_invalid_image(capsys, monkeypatch):
    monkeypatch.setattr("tabkit.tableaux._pct_rows", lambda rows, sigma, *_: ((1,), (1,)))
    code, out, err = run(capsys, "verify", "bijections", "--n", "1")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["checks"][0] == {"check": "pct-rt", "size": 1, "cases": 1, "pass": False}
    assert results["counterexample"] == (
        "rt_to_pct of ((1,),) under type (1,) is not a valid PCT: ((1,), (1,))"
    )


def test_verify_bijections_fails_a_row_on_an_image_of_other_columns(capsys, monkeypatch):
    # a valid PCT of type (1,) for every case: right at size 1, and at size 2
    # its column does not sort back to T = ((2, 1),)
    monkeypatch.setattr("tabkit.tableaux._pct_rows", lambda rows, sigma, *_: ((1,),))
    code, out, err = run(capsys, "verify", "bijections", "--n", "2")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["checks"][:2] == [
        {"check": "pct-rt", "size": 1, "cases": 1, "pass": True},
        {"check": "pct-rt", "size": 2, "cases": 1, "pass": False},
    ]
    assert results["counterexample"] == (
        "reverse-tableau/tableau round trip moved ((2, 1),) under type (1,)"
    )


def test_verify_bijections_fails_a_row_on_an_image_of_another_type(capsys, monkeypatch):
    # the image of the reversed type: a valid PCT whose columns sort back to
    # T, of the wrong type once T has two rows
    monkeypatch.setattr("tabkit.tableaux._pct_rows",
                        lambda rows, sigma, *_: image_rows(rows, sigma[::-1]))
    code, out, err = run(capsys, "verify", "bijections", "--n", "2")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    # size 2: T = ((2, 1),) under (1,) passes, T = ((2,), (1,)) under (1, 2) fails
    assert results["checks"][:2] == [
        {"check": "pct-rt", "size": 1, "cases": 1, "pass": True},
        {"check": "pct-rt", "size": 2, "cases": 2, "pass": False},
    ]
    assert results["counterexample"] == (
        "reverse-tableau/tableau round trip moved ((2,), (1,)) under type (1, 2)"
    )


def _lowest_long_row(image, lose):
    # the image with ``lose`` applied to its lowest row of two or more cells
    long = [i for i, row in enumerate(image) if len(row) > 1]
    if long:
        image[long[-1]] = lose(image[long[-1]])
    return image


@pytest.mark.parametrize("lossy, cases, witness", [
    # the last entry of that row dropped
    (lambda image: _lowest_long_row(image, lambda row: row[:-1]),
     1, "((2, 1),) under type (1,)"),
    # that entry replaced by the one to its left (a repeat within one later
    # column breaks the triple condition, so a repeat the validity test lets
    # through sits outside its own column)
    (lambda image: _lowest_long_row(image, lambda row: row[:-1] + row[-2:-1]),
     1, "((2, 1),) under type (1,)"),
    # the last row dropped, once there are two
    (lambda image: image[:-1] if len(image) > 1 else image,
     2, "((2,), (1,)) under type (1, 2)"),
], ids=["drop", "repeat", "drop-row"])
def test_verify_bijections_fails_a_row_on_an_image_that_loses_an_entry(
        capsys, monkeypatch, lossy, cases, witness):
    # each image is still a valid PCT of T's size, but one of T's entries is
    # gone from its column
    monkeypatch.setattr("tabkit.tableaux._pct_rows",
                        lambda rows, sigma, *_: lossy(image_rows(rows, sigma)))
    code, out, err = run(capsys, "verify", "bijections", "--n", "2")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["checks"][:2] == [
        {"check": "pct-rt", "size": 1, "cases": 1, "pass": True},
        {"check": "pct-rt", "size": 2, "cases": cases, "pass": False},
    ]
    assert results["counterexample"] == (
        f"reverse-tableau/tableau round trip moved {witness}"
    )


def test_a_moved_deep_tree_is_named_without_recursion(monkeypatch):
    # the left path of 1,500 nodes, deeper than the default recursion limit
    comb = ldyck_to_ltree(
        LabeledDyckPath(("U",) * 1500 + tuple(f"D{i}" for i in range(1, 1501)))
    )
    assert trees._tree_moved(comb) is None
    monkeypatch.setattr("tabkit.trees.ldyck_to_ltree", lambda d: Node(1))
    witness = trees._tree_moved(comb)
    assert witness.startswith("tree/path round trip moved the tree with (label, has a "
                              "left child, has a right child) in preorder ((1500, True, False), ")
    assert witness.endswith(", (2, True, False), (1, False, False))")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr("tabkit.cli.build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["enumerate", "spct", "--shape", "2,2"]) == 0
        assert main(["verify", "counts", "--max-n", "2"]) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def test_one_parser_answers_as_separate_processes(capsys, tmp_path):
    # each flag given once, then left out: the later call must see its default,
    # or miss it
    reverse = tmp_path / "rt.json"
    reverse.write_text(json.dumps({"rows": [[3, 1], [2]], "reverse": True}))
    argvs = [
        ["verify", "hecke", "--shape", "2,2"],
        ["verify", "hecke"],
        ["map", "rt-to-pct", "--in", str(reverse), "--sigma", "2 1"],
        ["map", "rt-to-pct", "--in", str(reverse)],
    ]

    def report(out):
        return {k: v for k, v in json.loads(out).items() if k != "elapsed_seconds"} if out else out

    for argv in argvs:
        code, out, err = run(capsys, *argv)
        alone = subprocess.run([sys.executable, "-m", "tabkit.cli", *argv],
                               capture_output=True, text=True)
        assert (code, report(out), err) == (alone.returncode, report(alone.stdout),
                                            alone.stderr)
    assert (code, err) == (2, "error: map rt-to-pct requires --sigma\n")


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv, code", [
    (["verify", "counts", "--max-n", "3", "--format", "text"], 0),
    (["map", "realize-pair", "--a", "1 2", "--b", "2 1"], 0),
], ids=["verify", "map"])
def test_closed_stdout_leaves_quietly_with_the_commands_code(argv, code):
    # nothing reads the pipe: its read end is closed before the command
    # starts, so every write to stdout fails with a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tabkit.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == code
    assert result.stderr == ""


# the seven commands of the benchmark's cli-exhaustive pass, at seed 1
CLI_EXHAUSTIVE = [
    ["enumerate", "spct", "--shape", "2,2,2,2,2"],
    ["verify", "counts", "--max-n", "4"],
    ["verify", "hecke", "--max-n", "5"],
    ["verify", "classes", "--max-size", "6"],
    ["verify", "bijections", "--n", "6", "--samples", "50", "--seed", "1"],
    ["verify", "pairs", "--max-n", "5"],
    ["stats", "quadruple", "--n", "5"],
]


@pytest.mark.parametrize("argv", CLI_EXHAUSTIVE, ids=["-".join(a[:2]) for a in CLI_EXHAUSTIVE])
def test_cli_exhaustive_reports_match_the_recorded_ones(capsys, argv):
    """``tests/cli_exhaustive.json`` holds the ``parameters`` and ``results``
    of each command's JSON report, keyed by its argv joined with spaces.  It
    was recorded by running these argv lists through ``main`` before the pair
    checks moved from the CLI into ``allowable.verify_pairs``, so a
    refactoring of the CLI must leave every report as it was."""
    recorded = json.loads((Path(__file__).parent / "cli_exhaustive.json").read_text())
    report = run_json(capsys, *argv)
    assert {k: report[k] for k in ("parameters", "results")} == recorded[" ".join(argv)]


def test_installed_script_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "tabkit.cli", "enumerate", "ldyck", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["results"]["count"] == 4


def test_the_module_entry_point_runs_a_command():
    # ``python -m tabkit.cli`` runs the ``__main__`` block and ``entry``
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "tabkit.cli", "verify", "counts", "--max-n", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["results"]["passed"] is True


def test_cli_imports_no_private_name_from_another_module():
    # the CLI parses, charges and renders: a check that needs a module's
    # private names runs in that module
    source = Path(cli.__file__).read_text(encoding="utf-8")
    private = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("tabkit"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_imports_no_check_it_hands_back():
    # the relation, class and count checks run in hecke and trees, and no
    # suite of the CLI builds a row of its own
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    checks = {"verify_hecke_relations", "equivalence_classes", "two_column_census",
              "enumerate_dyck"}
    assert imported & checks == set()
    suites = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")]
    assert [node.name for node in suites] == [f"_suite_{name}" for name in _SUITES]
    assert [node.name for node in suites
            if any(isinstance(sub, ast.Dict) for sub in ast.walk(node))] == []


def test_readme_lists_the_suites_their_flags_and_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### `tk verify`", 1)[1].split("\n### ", 1)[0]
    options = {flag.option: dest for dest, flag in cli._FLAGS.items()}
    # each row: | `suite` | what it checks | `--flag` (default), ... |
    listed = {
        suite: {options[option]: int(default) if default else None
                for option, default in re.findall(r"`(--[a-z-]+)`(?: \((\d+)\))?", flags)}
        for suite, flags in re.findall(r"^\| `(\w+)` \|.*\| (.*) \|$", section, re.M)
    }
    assert list(listed) == list(_SUITES)
    assert listed == {suite: takes for suite, (_, takes) in _SUITES.items()}
