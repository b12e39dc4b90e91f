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

Every command accepts ``--format {json,csv,text}`` (JSON is canonical); only
``tk verify bijections``, the one command that samples, takes ``--seed``
(default 0).  Every command is charged, before it starts, with an exact
count of its objects or a bound on its steps, and refuses when that passes
``--max-objects`` (default 10**7, overridable also via the TK_MAX_OBJECTS
environment variable).  Exit codes: 0 pass, 1 invariant failure, 2 usage
error or refusal.

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
from itertools import chain, permutations
from math import factorial

from .allowable import realize_sct, verify_pairs
from .core import (
    Composition,
    Perm,
    compositions_of,
    format_composition,
    format_permutation,
    parse_composition,
    parse_permutation,
    partitions_of,
)
from .dyck import (
    LabeledDyckPath,
    catalan,
    enumerate_dyck,
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
    _two_column_work,
    count_spct,
    count_srt,
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


def _charge(costs: Iterable[int], cap: int, what: str,
            refusal: Callable[[int], str] | None = None) -> None:
    """Sum ``costs`` one at a time, and refuse ``what`` as soon as the sum
    passes the cap, with ``refusal(sum)`` in place of the cap's message."""
    total = 0
    for cost in costs:
        total += cost
        if total > cap:
            why = (refusal(total) if refusal
                   else f"passed {cap} objects; raise --max-objects or TK_MAX_OBJECTS")
            raise GuardExceeded(f"{what} {why}")


def _compositions(max_size: int) -> Iterator[Composition]:
    """Every composition of size 1..max_size, generated lazily."""
    return (shape for m in range(1, max_size + 1) for shape in compositions_of(m))


def _spct_costs(max_size: int) -> Iterator[int]:
    """Lazily, l(lam)! f^lam for each partition lam of size 1..max_size: the
    standard PCTs, by their bijection onto the (T, sigma) of each shape lam."""
    return (factorial(len(lam)) * count_srt(lam)
            for m in range(1, max_size + 1) for lam in partitions_of(m))


def _transfer_costs(sizes: Iterable[int], cap: int) -> Iterator[int]:
    # ``_two_column_work(n)`` passes 2^n, so a large n passes the cap uncomputed
    return (cap + 1 if n >= cap.bit_length() else _two_column_work(n) for n in sizes)


def _refuse_flags(args: argparse.Namespace, command: str, choice: str, takes: dict) -> None:
    """Refuse ``--seed``, or a flag that ``takes`` declares, unless ``choice`` takes it."""
    for flag in dict.fromkeys((*chain.from_iterable(takes.values()), "seed")):
        if getattr(args, flag) is not None and flag not in takes[choice]:
            typed = "in" if flag == "infile" else flag.replace("_", "-")
            raise ValueError(f"{command} {choice} does not take --{typed}")


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


# the optional flags each kind takes
_KINDS = {"spct": ("shape", "sigma"), "srt": ("shape",), "ldyck": ("n",), "ltree": ("n",)}


def cmd_enumerate(args: argparse.Namespace, cap: int) -> Outcome:
    kind = args.kind
    _refuse_flags(args, "enumerate", kind, _KINDS)
    params: dict = {}
    if kind in ("spct", "srt"):
        if args.shape is None:
            raise ValueError(f"enumerate {kind} requires --shape")
        shape = parse_composition(args.shape)
        params["shape"] = list(shape)
        if kind == "srt":
            count = count_srt(shape)
            objects = lambda: enumerate_srt(shape)
        elif args.sigma is not None:
            sigma = parse_permutation(args.sigma)
            params["sigma"] = list(sigma)
            count = count_spct(shape, cap, sigma)
            objects = lambda: enumerate_spct_sigma(shape, sigma)
        else:
            count = count_spct(shape, cap)
            objects = lambda: enumerate_spct(shape)
    else:
        if args.n is None:
            raise ValueError(f"enumerate {kind} requires --n")
        n = params["n"] = args.n
        if kind == "ltree" and n < 1:
            raise ValueError(f"need at least one node: {n}")
        count = factorial(n) * catalan(n)
        objects = lambda: enumerate_ldyck(n) if kind == "ldyck" else enumerate_ltrees(n)
    _charge([count], cap, f"enumerate {kind}")

    results: dict = {"kind": kind, "count": count}
    if args.list is not None:
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


def _suite_hecke(cap: int, shape: str | None, max_n: int | None) -> Iterator[Check]:
    if max_n is None:
        one = parse_composition(shape)
        shapes, costs = [one], [count_spct(one, cap)]
    else:
        shapes, costs = _compositions(max_n), _spct_costs(max_n)
    _charge(costs, cap, "verify hecke")
    for alpha in shapes:
        rep = verify_hecke_relations(alpha)
        name = format_composition(alpha)
        row = {"shape": name, "tableaux": rep.tableaux, "checks": rep.checks,
               "pass": rep.passed}
        yield row, None if rep.passed else f"shape {name}: {rep.counterexample}"


def _suite_counts(cap: int, max_n: int) -> Iterator[Check]:
    # charged with the transfers' bound: the tree recurrence takes less, and
    # so do the Cat(n) paths of the walk, through n = 26
    _charge(_transfer_costs(range(1, max_n + 1), cap), cap, "verify counts")
    for n in range(1, max_n + 1):
        # each class has one source, so the transfer counts both
        quadruples, class_count = two_column_census(n)
        row = {
            "n": n,
            "spct": sum(quadruples.values()),
            # the labeled paths: every Dyck path under each of n! labelings
            "ldyck": factorial(n) * sum(1 for _ in enumerate_dyck(n)),
            "ltree": sum(edge_stats_counts(n).values()),
            "expected_objects": factorial(n) * catalan(n),
            "classes": class_count,
            "expected_classes": (n + 1) ** (n - 1),
        }
        passed = row["pass"] = (
            row["spct"] == row["ldyck"] == row["ltree"] == row["expected_objects"]
            and class_count == row["expected_classes"]
        )
        yield row, None if passed else f"n={n}: {row}"


def _type_moved(case: tuple[ReverseTableau, Perm]) -> str | None:
    T, sigma = case
    t = rt_to_pct(T, sigma)
    try:
        back = pct_to_rt(t)  # validates t
    except ValueError:
        return f"rt_to_pct of {T.rows} under type {sigma} is not a valid PCT: {t.rows}"
    if back != T or st_column(t, 1) != sigma:
        return f"reverse-tableau/tableau round trip moved {T.rows} under type {sigma}"
    return None


def _path_moved(d: LabeledDyckPath) -> str | None:
    if spct_to_ldyck(ldyck_to_spct(d)) != d:
        return f"path/tableau round trip moved {d.steps}"
    if ltree_to_ldyck(ldyck_to_ltree(d)) != d:
        return f"path/tree round trip moved {d.steps}"
    return None


def _tree_moved(tree: Node) -> str | None:
    if ldyck_to_ltree(ltree_to_ldyck(tree)) != tree:
        # named by the preorder key of its equality, shorter than its repr
        return (f"tree/path round trip moved the tree with (label, has a left child, "
                f"has a right child) in preorder {tree._key()}")
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


def _pct_rt(m: int) -> Check:
    # every reverse tableau T of size m under every type sigma of its rows:
    # each image must be a valid PCT that pct_to_rt and its first column
    # take back to (T, sigma), so the images are distinct standard PCTs of
    # size m; as many as there are, they are all of them
    cases = (
        (T, sigma)
        for lam in partitions_of(m)
        for T in enumerate_srt(lam)
        for sigma in permutations(range(1, len(lam) + 1))
    )
    row, bad = _round_trips("pct-rt", m, cases, _type_moved)
    if bad is None:
        spct = sum(count_spct(alpha) for alpha in compositions_of(m))
        if row["cases"] != spct:
            row["pass"] = False
            bad = f"size {m}: {row['cases']} (T, sigma) cases but {spct} standard PCTs"
    return row, bad


def _suite_bijections(cap: int, n: int, samples: int, seed: int) -> Iterator[Check]:
    drawn = samples * max(0, n - 4)
    _charge([drawn], cap, "verify bijections",
            lambda _: f"up to n={n} draws {drawn} samples")
    k = min(n, 4)
    # the samples, the paths of size <= k and the (T, sigma) cases of size <= n
    paths = sum(factorial(m) * catalan(m) for m in range(1, k + 1))
    _charge(chain((drawn, paths), _spct_costs(n)), cap, "verify bijections")
    rng = random.Random(seed)
    for m in range(1, n + 1):
        yield _pct_rt(m)
    for m in range(1, k + 1):
        yield _round_trips("ldyck-spct-ltree", m, enumerate_ldyck(m), _path_moved)
    for m in range(5, n + 1):
        # each sampled path is checked before its tree is drawn from ``rng``
        sampled = (random_ldyck(m, rng) for _ in range(samples))
        yield _round_trips(
            "sampled", m, sampled,
            lambda d: _path_moved(d) or _tree_moved(random_ltree(d.semi_length, rng)),
        )


def _suite_classes(cap: int, max_size: int) -> Iterator[Check]:
    _charge(_spct_costs(max_size), cap, "verify classes")
    for shape in _compositions(max_size):
        name = format_composition(shape)
        try:
            classes = equivalence_classes(shape)
        except AssertionError as exc:
            yield {"shape": name, "classes": 0, "pass": False}, f"shape {name}: {exc}"
        else:
            yield {"shape": name, "classes": len(classes), "pass": True}, None


def _suite_pairs(cap: int, max_n: int) -> Iterator[Check]:
    _charge((factorial(n) ** 2 for n in range(1, max_n + 1)), cap, "verify pairs",
            lambda tests: f"up to n={max_n} needs {tests} pair tests")
    for n in range(1, max_n + 1):
        row = verify_pairs(n)
        yield row, None if row["pass"] else f"n={n}: {row}"


# each suite, and the optional flags it takes with their defaults
_SUITES = {
    "hecke": (_suite_hecke, {"shape": None, "max_n": 4}),
    "counts": (_suite_counts, {"max_n": 4}),
    "bijections": (_suite_bijections, {"n": 4, "samples": 200, "seed": 0}),
    "classes": (_suite_classes, {"max_size": 5}),
    "pairs": (_suite_pairs, {"max_n": 4}),
}


def cmd_verify(args: argparse.Namespace, cap: int) -> Outcome:
    suite, takes = _SUITES[args.suite]
    _refuse_flags(args, "verify", args.suite, {k: flags for k, (_, flags) in _SUITES.items()})
    values = {flag: getattr(args, flag) for flag in takes}
    # hecke's one --shape takes no size, so no default either
    if values.get("shape") is None:
        values = {flag: default if values[flag] is None else values[flag]
                  for flag, default in takes.items()}
    elif values["max_n"] is not None:
        raise ValueError("verify hecke takes --shape or --max-n, not both")
    checks = list(suite(cap, **values))
    rows = [row for row, _ in checks]
    witnesses = [witness for _, witness in checks if witness is not None]
    # the report names the sizes and the seed; the sample count shows in the rows
    params = {"suite": args.suite} | {
        k: v for k, v in values.items() if v is not None and k != "samples"}
    results: dict = {"checks": rows, "passed": not witnesses}
    if witnesses:
        results["counterexample"] = witnesses[0]
    return params, results, rows, 1 if witnesses else 0


# ---------------------------------------------------------------------------
# tk stats


def cmd_stats(args: argparse.Namespace, cap: int) -> Outcome:
    _refuse_flags(args, "stats", args.kind, {"quadruple": ()})
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1: {n}")
    _charge(_transfer_costs([n], cap), cap, "stats quadruple",
            lambda _: f"at n={n} needs more than {cap} transfer steps")
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
    if args.sigma is None:
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
# the optional flags each transform takes
_MAP_FLAGS = dict.fromkeys(_TRANSFORMS, ("infile",)) | {
    "rt-to-pct": ("infile", "sigma"), "realize-pair": ("a", "b"),
}


def cmd_map(args: argparse.Namespace, cap: int) -> Outcome:
    transform = args.transform
    _refuse_flags(args, "map", transform, _MAP_FLAGS)
    params: dict = {"transform": transform}
    if transform in _TRANSFORMS:
        if args.infile is None:
            raise ValueError(f"map {transform} requires --in FILE (or --in -)")
        params["in"] = args.infile
        produced = _TRANSFORMS[transform](_load_json(args.infile), args, params)
    else:
        if args.a is None or args.b is None:
            raise ValueError(f"map {transform} requires --a and --b")
        a = parse_permutation(args.a)
        b = parse_permutation(args.b)
        params["a"] = format_permutation(a)
        params["b"] = format_permutation(b)
        produced = realize_sct(a, b).to_json()

    results: dict = {"result": produced}
    if args.out is not None:
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
        "--seed", type=int, default=None,
        help="seed for the samples of verify bijections (default 0)",
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
    p.add_argument("kind", choices=tuple(_KINDS))
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
    p.add_argument("--samples", type=int,
                   help="sample count beyond the exhaustive range (default 200)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", parents=[common],
                       help="joint distribution tables with equality verdict")
    p.add_argument("kind", choices=("quadruple",))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("map", parents=[common], help="apply one bijection")
    p.add_argument("transform", choices=tuple(_MAP_FLAGS))
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
        try:
            _emit(args.format, report, rows)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early: leave with the command's code,
            # and send what is still buffered to the null device, so that
            # the flush at exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
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
