"""Seeded inputs, per-op output checks and the three benchmark workloads.

The benchmark owns its inputs: labeled Dyck paths come from the cycle lemma,
allowable pairs from a pattern oracle written here, so no input depends on
the library's own samplers or predicates.  Every op checks its output
against a closed form or a round trip and raises ``CheckFailed`` when the
output is wrong.

An op calls the library only through the module objects of the package it is
given (``lib.dyck.ldyck_to_spct``), so that the tracer's rebinding of those
names sees every call.
"""

from __future__ import annotations

import io
import json
import random
from collections.abc import Callable, Sequence
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

# cli-exhaustive sizes: each command takes 0.02-0.4 s, so a run times every
# command about 30 times; at one size larger a run timed each only 2-3 times
CLI_ROWS = 5  # enumerate spct --shape 2,...,2
CLI_COUNTS_N = 4  # verify counts --max-n
CLI_HECKE_N = 5  # verify hecke --max-n
CLI_CLASSES_SIZE = 6  # verify classes --max-size
CLI_BIJECTIONS_N = 6  # verify bijections --n
CLI_SAMPLES = 50  # verify bijections --samples
CLI_PAIRS_N = 5  # verify pairs --max-n
CLI_QUADRUPLE_N = 5  # stats quadruple --n
ROUNDTRIP_N = 64  # semi-length of the roundtrip paths
ROUNDTRIP_PATHS = 100  # the paths cost alike; more repeats of each steady the tail
PAIRS_COUNT_N = 6  # allowable_pairs(6): (6!)^2 candidates, 7^5 pairs
PAIRS_REALIZE_N = 7
PAIRS_PER_STRATUM = 5  # sampled pairs per inversion count of a


class CheckFailed(Exception):
    """An op returned output that disagrees with the expected value."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def two_column_count(n: int) -> int:
    """n! Cat(n): standard two-column tableaux, labeled paths, labeled trees."""
    return factorial(n) * catalan(n)


def pair_count(n: int) -> int:
    """(n+1)^(n-1): allowable pairs, and classes of two-column rectangles."""
    return (n + 1) ** (n - 1)


def partitions(m: int, largest: int | None = None):
    if m == 0:
        yield ()
        return
    for k in range(min(m, largest or m), 0, -1):
        for rest in partitions(m - k, k):
            yield (k,) + rest


def hook_count(lam: Sequence[int]) -> int:
    """Standard Young tableaux of shape lam, by the hook length formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def spct_total(m: int) -> int:
    """Standard PCTs over all compositions of m.

    The shape-rearranging bijection matches PCTs of one type, over the
    compositions sorting to lam, with reverse tableaux of shape lam; there
    are len(lam)! types.
    """
    return sum(factorial(len(lam)) * hook_count(lam) for lam in partitions(m))


# ---------------------------------------------------------------------------
# input generators


def cycle_lemma_path(word: Sequence[str], labels: Sequence[int]) -> tuple[str, ...]:
    """The labeled Dyck path of a word of n 'U' and n+1 'D'.

    The rotation starting just after the first lowest prefix is a Dyck path
    followed by one 'D'; drop that 'D' and label the down-steps in order.
    Each path arises from exactly 2n+1 words (its rotations plus 'D').
    """
    height = low = cut = 0
    for i, step in enumerate(word):
        height += 1 if step == "U" else -1
        if height < low:
            low, cut = height, i + 1
    rotated = list(word[cut:]) + list(word[:cut])
    it = iter(labels)
    return tuple(s if s == "U" else f"D{next(it)}" for s in rotated[:-1])


def random_path(n: int, rng: random.Random) -> tuple[str, ...]:
    """A uniform canonical labeled Dyck path of semi-length n, in O(n)."""
    word = ["D"] * (2 * n + 1)
    for i in rng.sample(range(2 * n + 1), n):
        word[i] = "U"
    return cycle_lemma_path(word, rng.sample(range(1, n + 1), n))


def is_allowable(a: Sequence[int], b: Sequence[int]) -> bool:
    """Pattern oracle: a below b in the left weak order (inversion sets
    nested), and no a-increasing triple on which b reads 312."""
    n = len(a)

    def inversions(p):
        return {(i, j) for i, j in combinations(range(n), 2) if p[i] > p[j]}

    if not inversions(a) <= inversions(b):
        return False
    return not any(
        a[i] < a[j] < a[k] and b[j] < b[k] < b[i]
        for i, j, k in combinations(range(n), 3)
    )


def _walk_up(p: tuple[int, ...], steps: int, rng: random.Random) -> tuple[int, ...]:
    # each step swaps values v, v+1 with v first, adding one inversion
    for _ in range(steps):
        pos = {x: i for i, x in enumerate(p)}
        v = rng.choice([v for v in range(1, len(p)) if pos[v] < pos[v + 1]])
        p = tuple(v + 1 if x == v else v if x == v + 1 else x for x in p)
    return p


def sample_pair(n: int, k: int, m: int, rng: random.Random) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An allowable pair (a, b) of S_n, a with k inversions and b with k+m."""
    while True:
        a = _walk_up(tuple(range(1, n + 1)), k, rng)
        b = _walk_up(a, m, rng)
        if is_allowable(a, b):
            return a, b


def standardize(word: Sequence[int]) -> tuple[int, ...]:
    ranks = {x: r for r, x in enumerate(sorted(word), start=1)}
    return tuple(ranks[x] for x in word)


# ---------------------------------------------------------------------------
# ops


@dataclass(frozen=True)
class Op:
    """One checked call into the library.

    ``run(lib)`` returns the number of objects it checked and raises on a
    wrong output.  ``timed`` ops contribute a latency sample.
    """

    label: str
    input: object  # JSON-ready, printed as the witness of a failure
    run: Callable[[object], int]
    timed: bool


def _cli_op(argv: list[str], check: Callable[[dict], int]) -> Op:
    def run(lib) -> int:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(argv)
        require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        return check(json.loads(out.getvalue())["results"])

    return Op("tk " + " ".join(argv), argv, run, timed=True)


def _check_enumerate(results: dict) -> int:
    want = two_column_count(CLI_ROWS)
    require(results["count"] == want, f"count {results['count']} != n!Cat(n) = {want}")
    return results["count"]


def _check_counts(results: dict) -> int:
    require(results["passed"] is True, "suite reports failure")
    rows = results["checks"]
    require([r["n"] for r in rows] == list(range(1, CLI_COUNTS_N + 1)),
            f"rows are not n = 1..{CLI_COUNTS_N}")
    for r in rows:
        want = two_column_count(r["n"])
        got = (r["spct"], r["ldyck"], r["ltree"])
        require(got == (want,) * 3, f"n={r['n']}: counts {got} != n!Cat(n) = {want}")
        require(r["classes"] == pair_count(r["n"]),
                f"n={r['n']}: {r['classes']} classes != (n+1)^(n-1)")
    return sum(r["spct"] + r["ldyck"] + r["ltree"] for r in rows)


def _check_hecke(results: dict) -> int:
    require(results["passed"] is True, "suite reports failure")
    rows = results["checks"]
    require(len(rows) == 2**CLI_HECKE_N - 1,
            f"{len(rows)} shapes, not every composition of 1..{CLI_HECKE_N}")
    for m in range(1, CLI_HECKE_N + 1):
        got = sum(r["tableaux"] for r in rows
                  if sum(map(int, r["shape"].split(","))) == m)
        require(got == spct_total(m), f"size {m}: {got} tableaux != {spct_total(m)}")
    require(all(r["pass"] for r in rows), "a shape fails its relations")
    return sum(r["tableaux"] for r in rows)


def _check_classes(results: dict) -> int:
    require(results["passed"] is True, "suite reports failure")
    rows = results["checks"]
    require(len(rows) == 2**CLI_CLASSES_SIZE - 1,
            f"{len(rows)} shapes, not every composition of 1..{CLI_CLASSES_SIZE}")
    for r in rows:
        parts = [int(p) for p in r["shape"].split(",")]
        require(r["pass"] is True, f"shape {r['shape']} fails")
        if len(parts) == 1:
            want = 1
        elif set(parts) == {1}:
            want = factorial(len(parts))
        elif set(parts) == {2}:
            want = pair_count(len(parts))
        else:
            continue
        require(r["classes"] == want, f"shape {r['shape']}: {r['classes']} classes != {want}")
    return sum(r["classes"] for r in rows)


def _check_bijections(results: dict) -> int:
    require(results["passed"] is True, "suite reports failure")
    n = CLI_BIJECTIONS_N
    want = (
        [("pct-rt", m, spct_total(m)) for m in range(1, n + 1)]
        + [("ldyck-spct-ltree", m, two_column_count(m)) for m in range(1, min(n, 4) + 1)]
        + [("sampled", m, CLI_SAMPLES) for m in range(5, n + 1)]
    )
    rows = results["checks"]
    got = [(r["check"], r["size"], r["cases"]) for r in rows]
    require(got == want, f"cases {got} != {want}")
    require(all(r["pass"] for r in rows), "a round trip fails")
    return sum(r["cases"] for r in rows)


def _check_pairs(results: dict) -> int:
    require(results["passed"] is True, "suite reports failure")
    rows = results["checks"]
    require([r["n"] for r in rows] == list(range(1, CLI_PAIRS_N + 1)),
            f"rows are not n = 1..{CLI_PAIRS_N}")
    for r in rows:
        require(r["pairs"] == pair_count(r["n"]),
                f"n={r['n']}: {r['pairs']} pairs != (n+1)^(n-1)")
        flags = ["weak_order_agrees", "covers_allowable"]
        if r["n"] <= 4:
            flags.append("matches_tableau_pairs")
        require(all(r[f] is True for f in flags), f"n={r['n']}: {r}")
    return sum(r["pairs"] for r in rows)


def _check_quadruple(results: dict) -> int:
    want = two_column_count(CLI_QUADRUPLE_N)
    require(results["equal"] is True, "distributions differ")
    require(results["objects_per_side"] == want, f"{results['objects_per_side']} != {want}")
    dist = results["distribution"]
    sides = (sum(r["tableaux"] for r in dist), sum(r["trees"] for r in dist))
    require(sides == (want, want), f"distribution totals {sides} != {want}")
    return 2 * want


def _roundtrip_op(index: int, steps: tuple[str, ...]) -> Op:
    def run(lib) -> int:
        dyck, tableaux, trees = lib.dyck, lib.tableaux, lib.trees
        d = dyck.LabeledDyckPath(steps)
        t = dyck.ldyck_to_spct(d)
        t = tableaux.from_json(json.loads(json.dumps(t.to_json())))
        back = tableaux.rt_to_pct(tableaux.pct_to_rt(t), tableaux.st_column(t, 1))
        require(back == t, "tableau/reverse-tableau round trip moved")
        require(dyck.spct_to_ldyck(back) == d, "path/tableau round trip moved")
        tree = trees.ldyck_to_ltree(d)
        stats, quad = trees.edge_stats(tree), tableaux.descent_quadruple(t)
        require(stats == quad, f"edge stats {stats} != descent quadruple {quad}")
        tree = trees.tree_from_json(json.loads(json.dumps(trees.tree_to_json(tree))))
        require(trees.ltree_to_ldyck(tree) == d, "path/tree round trip moved")
        return 1

    return Op(f"roundtrip #{index}", " ".join(steps), run, timed=True)


def pairs_count_op(n: int, expected: int) -> Op:
    """allowable_pairs(n), whose yield must number ``expected``; the
    objects are the (n!)^2 candidate pairs tested."""

    def run(lib) -> int:
        got = sum(1 for _ in lib.allowable.allowable_pairs(n))
        require(got == expected, f"allowable_pairs({n}) yielded {got}, want {expected}")
        return factorial(n) ** 2

    return Op(f"allowable_pairs({n})", n, run, timed=False)


def _realize_op(a: tuple[int, ...], b: tuple[int, ...]) -> Op:
    def run(lib) -> int:
        t = lib.allowable.realize_sct(a, b)
        require(lib.tableaux.validate_pct(t).valid, f"invalid tableau {t.rows}")
        last = (standardize([r[-2] for r in t.rows]), standardize([r[-1] for r in t.rows]))
        require(last == (a, b), f"last columns standardize to {last}")
        return 1

    return Op("realize_sct", [list(a), list(b)], run, timed=True)


# ---------------------------------------------------------------------------
# workloads


def _cli_pass(seed: int) -> list[Op]:
    return [
        _cli_op(["enumerate", "spct", "--shape", ",".join(["2"] * CLI_ROWS)],
                _check_enumerate),
        _cli_op(["verify", "counts", "--max-n", str(CLI_COUNTS_N)], _check_counts),
        _cli_op(["verify", "hecke", "--max-n", str(CLI_HECKE_N)], _check_hecke),
        _cli_op(["verify", "classes", "--max-size", str(CLI_CLASSES_SIZE)], _check_classes),
        _cli_op(["verify", "bijections", "--n", str(CLI_BIJECTIONS_N), "--samples",
                 str(CLI_SAMPLES), "--seed", str(seed)], _check_bijections),
        _cli_op(["verify", "pairs", "--max-n", str(CLI_PAIRS_N)], _check_pairs),
        _cli_op(["stats", "quadruple", "--n", str(CLI_QUADRUPLE_N)], _check_quadruple),
    ]


def _roundtrip_pass(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [_roundtrip_op(i, random_path(ROUNDTRIP_N, rng)) for i in range(ROUNDTRIP_PATHS)]


def _pairs_pass(seed: int) -> list[Op]:
    # The graph realize_sct builds has k+2 columns, and its edge count is
    # fixed by the inversion counts k of a and k+m of b.  So the slots
    # (k, m) are the same for every seed, and only the pairs drawn differ.
    rng = random.Random(seed)
    n, top = PAIRS_REALIZE_N, PAIRS_REALIZE_N * (PAIRS_REALIZE_N - 1) // 2
    slots = [(k, j * (top - k) // (PAIRS_PER_STRATUM - 1))
             for k in range(top + 1) for j in range(PAIRS_PER_STRATUM)]
    return [pairs_count_op(PAIRS_COUNT_N, pair_count(PAIRS_COUNT_N))] + [
        _realize_op(*sample_pair(n, k, m, rng)) for k, m in slots
    ]


# Each workload builds one pass of ops from a seed, and a run repeats it.
# Why each workload exists is in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "cli-exhaustive": _cli_pass,
    "roundtrip": _roundtrip_pass,
    "pairs": _pairs_pass,
}
