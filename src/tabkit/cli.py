"""The ``tk`` command line: enumeration, verification, statistics, mappings.

Grammar: ``tk <command> <subcommand> [flags]``.

- ``tk enumerate {spct|srt|ldyck|ltree}`` counts a family without listing
  it, and lists it only to write the listing to a file.
- ``tk verify {hecke|counts|bijections|classes|pairs}`` runs an invariant
  suite and exits nonzero with a counterexample on failure.
- ``tk stats quadruple --n N`` compares the joint distribution of the
  four descent statistics on two-column standard tableaux with the four
  edge statistics on labeled binary trees.
- ``tk map <transform>`` applies one bijection to a JSON object.

Every command accepts ``--format {json,csv,text}`` (JSON is canonical) and
``--seed`` for the sampled portions of large verifications.  Every command
is charged, before it starts, with an exact count of the objects it would
produce, and refuses when that passes ``--max-objects`` (default 10**7,
overridable also via the TK_MAX_OBJECTS environment variable).  Exit codes:
0 pass, 1 invariant failure, 2 usage error or refusal.

Each ``cmd_*`` returns its parameters, results, rows and exit code, and
``main`` times it and renders the report.  Each verification suite yields
one ``(row, witness)`` pair per check; the witness is None on a pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from itertools import permutations
from math import factorial

from .allowable import (
    is_2112_avoiding,
    is_123312_avoiding,
    is_allowable_pair,
    realize_sct,
)
from .core import (
    apply_left_swap,
    compositions_of,
    format_composition,
    format_permutation,
    left_cover_swaps,
    parse_composition,
    parse_permutation,
    weak_bruhat_leq,
)
from .dyck import (
    LabeledDyckPath,
    catalan,
    enumerate_ldyck,
    ldyck_from_json,
    ldyck_to_spct,
    random_ldyck,
    spct_to_ldyck,
)
from .hecke import equivalence_classes, verify_hecke_relations
from .tableaux import (
    ReverseTableau,
    Tableau,
    _partition,
    _two_column_work,
    count_spct,
    descent_quadruple_counts,
    enumerate_spct,
    enumerate_spct_sigma,
    enumerate_srt,
    from_json,
    pct_to_rt,
    rt_to_pct,
    st_column,
    two_column_census,
)
from .trees import (
    Node,
    edge_stats_counts,
    enumerate_ltrees,
    ldyck_to_ltree,
    ltree_to_ldyck,
    random_ltree,
    tree_from_json,
    tree_to_json,
)

__all__ = ["main", "entry", "build_parser"]

DEFAULT_MAX_OBJECTS = 10_000_000

# What a command returns to ``main``: parameters, results, rows, exit code.
Outcome = tuple[dict, dict, list[dict], int]
# One suite check: its table row, and a witness when it failed.
Check = tuple[dict, str | None]


class GuardExceeded(Exception):
    """Raised when a command would enumerate past the configured cap."""


def _object_cap(args: argparse.Namespace) -> int:
    if args.max_objects is not None:
        return args.max_objects
    env = os.environ.get("TK_MAX_OBJECTS")
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"TK_MAX_OBJECTS is not an integer: {env!r}") from exc
        if cap < 0:
            raise ValueError(f"TK_MAX_OBJECTS must be nonnegative: {cap}")
        return cap
    return DEFAULT_MAX_OBJECTS


def _check_sizes(args: argparse.Namespace) -> None:
    """Refuse a negative size, sample count or cap; zero is valid."""
    for name in ("max_n", "n", "max_size", "samples", "max_objects"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be nonnegative: {value}")


def _check_cap(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise GuardExceeded(
            f"{what} passed {cap} objects; raise --max-objects or TK_MAX_OBJECTS"
        )


def _predicted(shapes: Iterable, cap: int, what: str) -> list:
    """The shapes, refused as soon as their tableaux, counted without
    listing, pass the cap: before any shape's walk starts."""
    total = 0
    listed = []
    for shape in shapes:
        total += count_spct(shape, cap - total)
        _check_cap(total, cap, what)
        listed.append(shape)
    return listed


# ---------------------------------------------------------------------------
# report rendering


def _cell(value) -> str:
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return str(value)


def _fields(rows: list[dict]) -> list[str]:
    """The column names of ``rows`` in first-seen order."""
    return list(dict.fromkeys(key for row in rows for key in row))


def _table_lines(rows: list[dict]) -> list[str]:
    if not rows:
        return ["(no rows)"]
    fields = _fields(rows)
    grid = [fields] + [[_cell(row.get(f, "")) for f in fields] for row in rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(fields))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in grid]


def _emit(fmt: str, report: dict, rows: list[dict]) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    elif fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=_fields(rows))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(v) for k, v in row.items()})
    else:
        print(f"command: {report['command']}")
        params = " ".join(f"{k}={_cell(v)}" for k, v in report["parameters"].items())
        print(f"parameters: {params}" if params else "parameters: (none)")
        for line in _table_lines(rows):
            print(line)
        for key, value in report["results"].items():
            if not isinstance(value, (list, dict)):
                print(f"{key}: {value}")
        print(f"elapsed: {report['elapsed_seconds']}s")


# ---------------------------------------------------------------------------
# tk enumerate


def cmd_enumerate(args: argparse.Namespace, cap: int) -> Outcome:
    kind = args.kind
    takes = {"shape": ("spct", "srt"), "sigma": ("spct",), "n": ("ldyck", "ltree")}
    for flag, kinds in takes.items():
        if getattr(args, flag) is not None and kind not in kinds:
            raise ValueError(f"enumerate {kind} does not take --{flag}")
    params: dict = {}
    if kind in ("spct", "srt"):
        if not args.shape:
            raise ValueError(f"enumerate {kind} requires --shape")
        shape = parse_composition(args.shape)
        params["shape"] = list(shape)
        sigma = None
        if kind == "srt":
            shape = _partition(shape)
            sigma = tuple(range(len(shape), 0, -1))
            objects = lambda: enumerate_srt(shape)
        elif args.sigma:
            sigma = parse_permutation(args.sigma)
            params["sigma"] = list(sigma)
            objects = lambda: enumerate_spct_sigma(shape, sigma)
        else:
            objects = lambda: enumerate_spct(shape)
        count = count_spct(shape, cap, sigma)
    else:
        if args.n is None:
            raise ValueError(f"enumerate {kind} requires --n")
        n = params["n"] = args.n
        if kind == "ltree" and n < 1:
            raise ValueError(f"need at least one node: {n}")
        count = factorial(n) * catalan(n)
        objects = lambda: enumerate_ldyck(n) if kind == "ldyck" else enumerate_ltrees(n)
    _check_cap(count, cap, f"enumerate {kind}")

    results: dict = {"kind": kind, "count": count}
    if args.list:
        as_json = tree_to_json if kind == "ltree" else lambda obj: obj.to_json()
        listing = [as_json(obj) for obj in objects()]
        with open(args.list, "w", encoding="utf-8") as fh:
            json.dump(listing, fh, indent=2)
            fh.write("\n")
        results["listing_file"] = args.list
    rows = [{"kind": kind, **params, "count": count}]
    return params | {"kind": kind}, results, rows, 0


# ---------------------------------------------------------------------------
# tk verify


def _suite_hecke(args: argparse.Namespace, cap: int) -> Iterator[Check]:
    if args.shape:
        shapes = [parse_composition(args.shape)]
    else:
        max_n = args.max_n if args.max_n is not None else 4
        shapes = (a for n in range(1, max_n + 1) for a in compositions_of(n))
    for shape in _predicted(shapes, cap, "verify hecke"):
        rep = verify_hecke_relations(shape)
        name = format_composition(shape)
        row = {"shape": name, "tableaux": rep.tableaux, "checks": rep.checks,
               "pass": rep.passed}
        yield row, None if rep.passed else f"shape {name}: {rep.counterexample}"


def _suite_counts(args: argparse.Namespace, cap: int) -> Iterator[Check]:
    max_n = args.max_n if args.max_n is not None else 4
    # the largest listing: the paths, or the trees, of size max_n
    _check_cap(factorial(max_n) * catalan(max_n) if max_n else 0, cap, "verify counts")
    for n in range(1, max_n + 1):
        # each class has one source, so the transfer counts both
        quadruples, class_count = two_column_census(n)
        spct_count = sum(quadruples.values())
        ldyck_count = sum(1 for _ in enumerate_ldyck(n))
        ltree_count = sum(1 for _ in enumerate_ltrees(n))
        want_objects = factorial(n) * catalan(n)
        want_classes = (n + 1) ** (n - 1)
        passed = (
            spct_count == ldyck_count == ltree_count == want_objects
            and class_count == want_classes
        )
        row = {
            "n": n,
            "spct": spct_count,
            "ldyck": ldyck_count,
            "ltree": ltree_count,
            "expected_objects": want_objects,
            "classes": class_count,
            "expected_classes": want_classes,
            "pass": passed,
        }
        yield row, None if passed else f"n={n}: {row}"


def _tableau_moved(t: Tableau) -> str | None:
    if rt_to_pct(pct_to_rt(t), st_column(t, 1)) != t:
        return f"tableau/reverse-tableau round trip moved {t.rows}"
    return None


def _path_moved(d: LabeledDyckPath) -> str | None:
    if spct_to_ldyck(ldyck_to_spct(d)) != d:
        return f"path/tableau round trip moved {d.steps}"
    if ltree_to_ldyck(ldyck_to_ltree(d)) != d:
        return f"path/tree round trip moved {d.steps}"
    return None


def _tree_moved(tree: Node) -> str | None:
    if ldyck_to_ltree(ltree_to_ldyck(tree)) != tree:
        return f"tree/path round trip moved {tree}"
    return None


def _round_trips(check: str, size: int, cases: Iterable,
                 moved: Callable[[object], str | None]) -> Check:
    """Run ``moved`` on each case up to the first failure message it returns."""
    count = 0
    bad = None
    for case in cases:
        count += 1
        bad = moved(case)
        if bad is not None:
            break
    return {"check": check, "size": size, "cases": count, "pass": bad is None}, bad


def _suite_bijections(args: argparse.Namespace, cap: int) -> Iterator[Check]:
    n = args.n if args.n is not None else 4
    samples = args.samples * max(0, n - 4)
    if samples > cap:
        raise GuardExceeded(f"verify bijections up to n={n} draws {samples} samples")
    # the largest listings: SPCT((1)^n), whose n! tableaux are the most of
    # any shape of size n, and the paths of size min(n, 4)
    k = min(n, 4)
    largest = max(factorial(n), factorial(k) * catalan(k)) if n else 0
    _check_cap(largest, cap, "verify bijections")
    rng = random.Random(args.seed)
    for m in range(1, n + 1):
        tableaux = (t for alpha in compositions_of(m) for t in enumerate_spct(alpha))
        yield _round_trips("pct-rt", m, tableaux, _tableau_moved)
    for m in range(1, k + 1):
        yield _round_trips("ldyck-spct-ltree", m, enumerate_ldyck(m), _path_moved)
    for m in range(5, n + 1):
        # each sampled path is checked before its tree is drawn from ``rng``
        paths = (random_ldyck(m, rng) for _ in range(args.samples))
        yield _round_trips(
            "sampled", m, paths,
            lambda d: _path_moved(d) or _tree_moved(random_ltree(d.semi_length, rng)),
        )


def _suite_classes(args: argparse.Namespace, cap: int) -> Iterator[Check]:
    max_size = args.max_size if args.max_size is not None else 5
    shapes = (a for m in range(1, max_size + 1) for a in compositions_of(m))
    for shape in _predicted(shapes, cap, "verify classes"):
        name = format_composition(shape)
        try:
            classes = equivalence_classes(shape)
        except AssertionError as exc:
            yield {"shape": name, "classes": 0, "pass": False}, f"shape {name}: {exc}"
        else:
            connected = sum(1 for c in classes if c.moved_connected)
            row = {"shape": name, "classes": len(classes), "connected": connected,
                   "pass": True}
            yield row, None


def _suite_pairs(args: argparse.Namespace, cap: int) -> Iterator[Check]:
    max_n = args.max_n if args.max_n is not None else 4
    tests = 0
    for n in range(1, max_n + 1):
        tests += factorial(n) ** 2
        # stop at the first size where the running total passes the cap
        if tests > cap:
            raise GuardExceeded(f"verify pairs up to n={max_n} needs {tests} pair tests")
    for n in range(1, max_n + 1):
        perms = list(permutations(range(1, n + 1)))
        pairs = set()
        agree = True
        for a in perms:
            for b in perms:
                avoids = is_2112_avoiding(a, b)
                if avoids != weak_bruhat_leq(a, b):
                    agree = False
                if avoids and is_123312_avoiding(a, b):
                    pairs.add((a, b))
        covers = all(
            is_allowable_pair(p, apply_left_swap(p, v))
            for p in perms
            for v in left_cover_swaps(p)
        )
        want = (n + 1) ** (n - 1)
        row = {
            "n": n,
            "pairs": len(pairs),
            "expected": want,
            "weak_order_agrees": agree,
            "covers_allowable": covers,
        }
        passed = len(pairs) == want and agree and covers
        if n <= 4:
            st_pairs = {
                (st_column(t, 1), st_column(t, 2)) for t in enumerate_spct((2,) * n)
            }
            row["matches_tableau_pairs"] = st_pairs == pairs
            passed = passed and st_pairs == pairs
        row["pass"] = passed
        yield row, None if passed else f"n={n}: {row}"


_SUITES = {
    "hecke": _suite_hecke,
    "counts": _suite_counts,
    "bijections": _suite_bijections,
    "classes": _suite_classes,
    "pairs": _suite_pairs,
}


def cmd_verify(args: argparse.Namespace, cap: int) -> Outcome:
    checks = list(_SUITES[args.suite](args, cap))
    rows = [row for row, _ in checks]
    witnesses = [witness for _, witness in checks if witness is not None]
    names = ("suite", "shape", "max_n", "n", "max_size", "seed")
    params = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    results: dict = {"checks": rows, "passed": not witnesses}
    if witnesses:
        results["counterexample"] = witnesses[0]
    return params, results, rows, 1 if witnesses else 0


# ---------------------------------------------------------------------------
# tk stats


def cmd_stats(args: argparse.Namespace, cap: int) -> Outcome:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1: {n}")
    # the bound passes 2^n, so a large n is refused before it is computed
    if n >= cap.bit_length() or _two_column_work(n) > cap:
        raise GuardExceeded(f"stats quadruple at n={n} needs more than {cap} transfer steps")
    tableau_side = descent_quadruple_counts(n)
    tree_side = edge_stats_counts(n)
    quadruples = sorted(set(tableau_side) | set(tree_side))
    rows = [
        {
            "quadruple": ",".join(map(str, q)),
            "tableaux": tableau_side.get(q, 0),
            "trees": tree_side.get(q, 0),
        }
        for q in quadruples
    ]
    equal = tableau_side == tree_side
    results = {
        "distribution": rows,
        "objects_per_side": factorial(n) * catalan(n),
        "distinct_quadruples": len(quadruples),
        "equal": equal,
    }
    return {"kind": "quadruple", "n": n}, results, rows, 0 if equal else 1


# ---------------------------------------------------------------------------
# tk map


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as exc:
        raise ValueError("input JSON nests too deeply") from exc


def _load_tableau(data: dict, kind: type) -> Tableau | ReverseTableau:
    obj = from_json(data)
    if not isinstance(obj, kind):
        raise ValueError(
            'expected a plain tableau, got one marked "reverse"' if kind is Tableau
            else 'expected a reverse tableau (JSON key "reverse": true)'
        )
    return obj


def _rt_to_pct(data: dict, args: argparse.Namespace, params: dict) -> dict:
    if not args.sigma:
        raise ValueError(f"map {args.transform} requires --sigma")
    sigma = parse_permutation(args.sigma)
    params["sigma"] = format_permutation(sigma)
    return rt_to_pct(_load_tableau(data, ReverseTableau), sigma).to_json()


# (input JSON, arguments, parameters to report) -> output JSON
_TRANSFORMS: dict[str, Callable[[dict, argparse.Namespace, dict], dict]] = {
    "pct-to-rt": lambda js, *_: pct_to_rt(_load_tableau(js, Tableau)).to_json(),
    "rt-to-pct": _rt_to_pct,
    "spct-to-ldyck": lambda js, *_: spct_to_ldyck(_load_tableau(js, Tableau)).to_json(),
    "ldyck-to-spct": lambda js, *_: ldyck_to_spct(ldyck_from_json(js)).to_json(),
    "ldyck-to-ltree": lambda js, *_: tree_to_json(ldyck_to_ltree(ldyck_from_json(js))),
    "ltree-to-ldyck": lambda js, *_: ltree_to_ldyck(tree_from_json(js)).to_json(),
}


def cmd_map(args: argparse.Namespace, cap: int) -> Outcome:
    transform = args.transform
    params: dict = {"transform": transform}
    if transform in _TRANSFORMS:
        if not args.infile:
            raise ValueError(f"map {transform} requires --in FILE (or --in -)")
        params["in"] = args.infile
        produced = _TRANSFORMS[transform](_load_json(args.infile), args, params)
    else:
        if not args.a or not args.b:
            raise ValueError(f"map {transform} requires --a and --b")
        a = parse_permutation(args.a)
        b = parse_permutation(args.b)
        params["a"] = format_permutation(a)
        params["b"] = format_permutation(b)
        produced = realize_sct(a, b).to_json()

    results: dict = {"result": produced}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(produced, fh, indent=2)
            fh.write("\n")
        results["output_file"] = args.out
    rows = [{"key": k, "value": v} for k, v in produced.items()]
    return params, results, rows, 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )
    common.add_argument(
        "--seed", type=int, default=0,
        help="seed for any sampled verification (default 0)",
    )
    common.add_argument(
        "--max-objects", type=int, default=None, metavar="N",
        help=f"object cap per command (default {DEFAULT_MAX_OBJECTS}; "
        "env TK_MAX_OBJECTS also applies)",
    )

    parser = argparse.ArgumentParser(
        prog="tk",
        description="Composition tableaux, labeled Dyck paths, labeled "
        "binary trees, and the bijections connecting them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common], help="count a family")
    p.add_argument("kind", choices=("spct", "srt", "ldyck", "ltree"))
    p.add_argument("--shape", help="composition such as 2,2,2 (spct/srt)")
    p.add_argument("--sigma", help="restrict spct to one type, e.g. '3 1 2'")
    p.add_argument("--n", type=int, help="semi-length or node count (ldyck/ltree)")
    p.add_argument("--list", metavar="FILE", help="write the full listing as JSON")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="run an invariant suite")
    p.add_argument("suite", choices=tuple(_SUITES))
    p.add_argument("--shape", help="single shape for the hecke suite")
    p.add_argument("--max-n", type=int, help="largest size (hecke/counts/pairs)")
    p.add_argument("--n", type=int, help="largest size (bijections)")
    p.add_argument("--max-size", type=int, help="largest shape size (classes)")
    p.add_argument("--samples", type=int, default=200,
                   help="sample count beyond the exhaustive range (default 200)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", parents=[common],
                       help="joint distribution tables with equality verdict")
    p.add_argument("kind", choices=("quadruple",))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("map", parents=[common], help="apply one bijection")
    p.add_argument("transform", choices=(*_TRANSFORMS, "realize-pair"))
    p.add_argument("--in", dest="infile", metavar="FILE",
                   help="input JSON file, or - for stdin")
    p.add_argument("--out", metavar="FILE", help="write the result JSON here")
    p.add_argument("--sigma", help="row type for rt-to-pct, e.g. '3 1 4 2'")
    p.add_argument("--a", help="first permutation for realize-pair")
    p.add_argument("--b", help="second permutation for realize-pair")
    p.set_defaults(func=cmd_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_sizes(args)
        started = time.perf_counter()
        parameters, results, rows, code = args.func(args, _object_cap(args))
        report = {
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "elapsed_seconds": round(time.perf_counter() - started, 6),
        }
        _emit(args.format, report, rows)
        return code
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the object nests too deeply to process", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
