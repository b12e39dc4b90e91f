import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from tabkit import hecke
from tabkit.allowable import is_2112_avoiding, is_123312_avoiding, is_allowable_pair
from tabkit.cli import _SUITES, _TRANSFORMS, DEFAULT_MAX_OBJECTS, equivalence_classes, main


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


def test_verify_hecke_reports_a_broken_image(capsys, monkeypatch):
    # every move lands on the row word of (4, 1)/(3, 2), which breaks the
    # triple condition (a row word cannot describe increasing rows)
    image = hecke._image
    monkeypatch.setattr(
        "tabkit.hecke._image",
        lambda w, cols, i: image(w, cols, i) if image(w, cols, i) in (w, None)
        else (0, 1, 1, 0),
    )
    code, out, err = run(capsys, "verify", "hecke", "--shape", "2,2")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["passed"] is False
    assert "is not a valid standard tableau" in results["counterexample"]


def test_verify_classes_reports_a_failing_shape(capsys, monkeypatch):
    def broken(shape):
        if tuple(shape) == (2, 1):
            raise AssertionError("no classes")
        return equivalence_classes(shape)

    monkeypatch.setattr("tabkit.cli.equivalence_classes", broken)
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
    monkeypatch.setattr("tabkit.cli.catalan", lambda n: 0)
    code, out, err = run(capsys, "verify", "counts", "--max-n", "2")
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert results["passed"] is False
    assert results["counterexample"].startswith("n=1:")
    assert [row["pass"] for row in results["checks"]] == [False, False]


def test_verify_pairs_refuses_before_starting(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("tabkit.cli.is_2112_avoiding", lambda a, b: calls.append(a))
    # 1!^2 + 2!^2 + 3!^2 = 41 pair tests
    code, out, err = run(capsys, "verify", "pairs", "--max-n", "3", "--max-objects", "40")
    assert code == 2 and out == "" and calls == []
    assert err.startswith("refused: verify pairs up to n=3 needs 41 pair tests")
    monkeypatch.undo()
    report = run_json(capsys, "verify", "pairs", "--max-n", "3", "--max-objects", "41")
    assert report["results"]["passed"] is True


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
    # 5! Cat(5) = 5040 paths or trees at n = 5
    ("verify", "counts", "--max-n", "5", "--max-objects", "100"),
    # SPCT((1)^8) holds 8! = 40320 tableaux
    ("verify", "bijections", "--n", "8", "--samples", "0", "--max-objects", "1000"),
], ids=["hecke-shape", "hecke-long-shape", "hecke-max-n", "classes",
        "enumerate-spct", "enumerate-spct-sigma", "enumerate-srt", "enumerate-ldyck",
        "enumerate-ltree", "counts", "bijections"])
def test_verify_suites_refuse_before_any_walk(capsys, monkeypatch, argv):
    def walk(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr("tabkit.tableaux._spct_walk", walk)
    monkeypatch.setattr("tabkit.hecke._spct_walk", walk)
    for name in ("enumerate_ldyck", "enumerate_ltrees", "two_column_census", "random_ldyck"):
        monkeypatch.setattr(f"tabkit.cli.{name}", walk)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"refused: {argv[0]} {argv[1]} passed {argv[-1]} objects")


def test_enumerate_counts_without_walking(capsys, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("a walk started")

    monkeypatch.setattr("tabkit.tableaux._spct_walk", walk)
    report = run_json(capsys, "enumerate", "spct", "--shape", ",".join(["2"] * 7))
    assert report["results"]["count"] == 2_162_160
    report = run_json(capsys, "enumerate", "srt", "--shape", "4,3,1")
    assert report["results"]["count"] == 70


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


def test_verify_pairs_tests_2112_once_per_candidate(capsys, monkeypatch):
    avoiding = mock.Mock(wraps=is_2112_avoiding)
    avoiding_123312 = mock.Mock(wraps=is_123312_avoiding)
    allowable = mock.Mock(wraps=is_allowable_pair)
    monkeypatch.setattr("tabkit.cli.is_2112_avoiding", avoiding)
    monkeypatch.setattr("tabkit.cli.is_123312_avoiding", avoiding_123312)
    monkeypatch.setattr("tabkit.cli.is_allowable_pair", allowable)
    report = run_json(capsys, "verify", "pairs", "--max-n", "4")
    assert report["results"]["passed"] is True
    # 1 + 4 + 36 + 576 candidates; the 123-312 test runs on the 172 that
    # avoid 2112, and the allowable test only on the 43 cover pairs
    calls = (avoiding.call_count, avoiding_123312.call_count, allowable.call_count)
    assert calls == (617, 172, 43)


def test_text_and_csv_renderings(capsys):
    code, out, _ = run(capsys, "verify", "counts", "--max-n", "2", "--format", "text")
    assert code == 0
    *body, elapsed = out.splitlines()
    assert body == [
        "command: verify",
        "parameters: suite=counts max_n=2 seed=0",
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
        "parameters: suite=hecke max_n=0 seed=0",
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

    for name in ("factorial", "catalan", "descent_quadruple_counts", "edge_stats_counts"):
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


@pytest.mark.parametrize("argv", [
    ("verify", "hecke", "--max-n", "3"),
    ("verify", "classes", "--max-size", "3"),
], ids=["hecke", "classes"])
def test_verify_suites_cap_tableaux_not_shapes(capsys, argv):
    # the 7 shapes of sizes 1, 2 and 3 hold 1 + 3 + 11 = 15 tableaux
    code, out, err = run(capsys, *argv, "--max-objects", "14")
    assert code == 2 and out == ""
    assert err.startswith(f"refused: verify {argv[1]} passed 14 objects")
    report = run_json(capsys, *argv, "--max-objects", "15")
    assert report["results"]["passed"] is True
    assert len(report["results"]["checks"]) == 7


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
    monkeypatch.setattr("tabkit.cli.enumerate_spct", lambda shape: calls.append(shape))
    # sizes 5 and 6 draw 400 samples each
    argv = ("verify", "bijections", "--n", "6", "--samples", "400")
    code, out, err = run(capsys, *argv, "--max-objects", "799")
    assert code == 2 and out == "" and calls == []
    assert err.startswith("refused: verify bijections up to n=6 draws 800 samples")
    monkeypatch.undo()
    # the largest exhaustive listing, SPCT((1)^6), holds 720 tableaux
    report = run_json(capsys, *argv, "--max-objects", "800")
    assert report["results"]["passed"] is True


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_installed_script_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "tabkit.cli", "enumerate", "ldyck", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["results"]["count"] == 4
