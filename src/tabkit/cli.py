"""The ``tk`` command line: enumeration, verification, statistics, mappings.

Grammar: ``tk <command> <choice> [flags]``.  ``tk enumerate`` counts a
family without listing it, and lists it only to write a file; ``tk verify``
runs an invariant suite and exits 1 with a counterexample on failure; ``tk
stats quadruple`` compares the joint distribution of the four descent
statistics on two-column standard tableaux with that of the four edge
statistics on labeled binary trees; ``tk map`` applies one bijection.

Each flag is declared once, in ``_FLAGS``, and each command's choices, with
the flags each takes and their defaults, once, in ``_COMMANDS``; the parser,
its help and every flag check are built from the two.  Every command is
charged, before it starts, with an exact count of its objects or a bound on
its steps, and refuses when that passes the object cap.  Exit codes: 0 pass,
1 invariant failure, 2 usage error or refusal.

Each ``cmd_*`` takes the cap, the choice and the flags' values, and returns
its parameters, results, rows and exit code; ``main`` times it and renders
the report.  A verification suite here only charges the cap and hands back
one ``(row, witness)`` per check, the witness None on a pass.  Each check
runs in the module it checks: ``hecke.verify_relations`` and
``hecke.verify_classes`` per shape, ``trees.verify_counts`` and
``allowable.verify_pairs`` per size, and for ``bijections``, under the seed's
``rng``, ``tableaux.verify_pct_rt`` and the round trips of ``trees``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from functools import cache
from itertools import chain
from math import comb, factorial
from typing import NamedTuple

from .allowable import realize_sct, verify_pairs
from .core import (
    Composition,
    Perm,
    compositions_of,
    format_permutation,
    inversions,
    parse_composition,
    parse_permutation,
    partitions_of,
)
from .dyck import (
    enumerate_ldyck,
    labeled_catalan,
    ldyck_from_json,
    ldyck_to_spct,
    spct_to_ldyck,
)
from .hecke import verify_classes, verify_relations
from .tableaux import (
    ReverseTableau,
    Tableau,
    count_spct,
    count_srt,
    descent_quadruple_counts,
    enumerate_spct,
    enumerate_spct_sigma,
    enumerate_srt,
    from_json,
    pct_to_rt,
    rt_to_pct,
    two_column_work,
    verify_pct_rt,
)
from .trees import (
    edge_stats_counts,
    enumerate_ltrees,
    ldyck_to_ltree,
    ltree_to_ldyck,
    tree_from_json,
    tree_to_json,
    verify_counts,
    verify_path_round_trips,
    verify_sampled_round_trips,
)

__all__ = ["main", "entry", "build_parser"]

DEFAULT_MAX_OBJECTS = 10_000_000

# What a command returns to ``main``: parameters, results, rows, exit code.
Outcome = tuple[dict, dict, list[dict], int]
# One suite check: its table row, and a witness when it failed.
Check = tuple[dict, str | None]


class GuardExceeded(Exception):
    """Raised when a command would enumerate past the configured cap."""


def _object_cap(max_objects: int | None) -> int:
    if max_objects is not None:
        return max_objects
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


def _spct_costs(max_size: int, weight: Callable[[int], int] = lambda m: 1
                ) -> Iterator[int]:
    """Lazily, l(lam)! f^lam for each partition lam of size 1..max_size, times
    ``weight(m)`` at size m: the standard PCTs, by their bijection onto the
    (T, sigma) of each shape lam."""
    return (factorial(len(lam)) * count_srt(lam) * weight(m)
            for m in range(1, max_size + 1) for lam in partitions_of(m))


def _transfer_costs(sizes: Iterable[int], cap: int) -> Iterator[int]:
    # ``two_column_work(n)`` passes 2^n, so a large n passes the cap uncomputed
    return (cap + 1 if n >= cap.bit_length() else two_column_work(n) for n in sizes)


# ---------------------------------------------------------------------------
# report rendering


def _write_json(path: str, obj) -> None:
    # the whole text first: an object too deep to encode leaves no file
    text = json.dumps(obj, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    # the whole text first, as in ``_write_json``: a report too deep to
    # encode prints nothing
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=_fields(rows))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(v) for k, v in row.items()})
        text = buffer.getvalue()
    else:
        params = " ".join(f"{k}={_cell(v)}" for k, v in report["parameters"].items())
        lines = [f"command: {report['command']}",
                 f"parameters: {params}" if params else "parameters: (none)",
                 *_table_lines(rows),
                 *(f"{key}: {value}" for key, value in report["results"].items()
                   if not isinstance(value, (list, dict))),
                 f"elapsed: {report['elapsed_seconds']}s"]
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# tk enumerate


def cmd_enumerate(cap: int, kind: str, shape: str | None = None, sigma: str | None = None,
                  n: int | None = None, listing: str | None = None) -> Outcome:
    params: dict = {}
    if kind in ("spct", "srt"):
        shape = parse_composition(shape)
        params["shape"] = list(shape)
        # before the count: it walks one level per cell, and its first
        # level holds l copies of the l - 1 other rows
        _charge([sum(shape)], cap, f"enumerate {kind}")
        _charge([len(shape) ** 2], cap, f"enumerate {kind}")
        if kind == "srt":
            count = count_srt(shape)
            objects = lambda: enumerate_srt(shape)
        else:
            if sigma is not None:
                sigma = parse_permutation(sigma)
                params["sigma"] = list(sigma)
            count = count_spct(shape, cap, sigma)
            objects = lambda: (enumerate_spct(shape) if sigma is None
                               else enumerate_spct_sigma(shape, sigma))
    else:
        params["n"] = n
        if kind == "ltree" and n < 1:
            raise ValueError(f"need at least one node: {n}")
        # n! Cat(n) >= 2^(n-1), so a large n passes the cap uncomputed
        count = cap + 1 if n > cap.bit_length() else labeled_catalan(n)
        objects = lambda: enumerate_ldyck(n) if kind == "ldyck" else enumerate_ltrees(n)
    _charge([count], cap, f"enumerate {kind}")

    results: dict = {"kind": kind, "count": count}
    if listing is not None:
        as_json = tree_to_json if kind == "ltree" else lambda obj: obj.to_json()
        _write_json(listing, [as_json(obj) for obj in objects()])
        results["listing_file"] = listing
    rows = [{"kind": kind, **params, "count": count}]
    return params | {"kind": kind}, results, rows, 0


# ---------------------------------------------------------------------------
# tk verify


def _suite_hecke(cap: int, shape: str | None, max_n: int | None) -> Iterator[Check]:
    # charged its C(m, 2) relation checks on each tableau of size m, and at
    # least one, so that a tableau of size <= 2 is one object
    relations = lambda m: max(1, comb(m, 2))
    if max_n is None:
        one = parse_composition(shape)
        per = relations(sum(one))
        _charge([per], cap, "verify hecke")  # before the shape is counted
        shapes, costs = [one], [per * count_spct(one, cap // per)]
    else:
        shapes, costs = _compositions(max_n), _spct_costs(max_n, relations)
    _charge(costs, cap, "verify hecke")
    return map(verify_relations, shapes)


def _suite_counts(cap: int, max_n: int) -> Iterator[Check]:
    # charged with the transfers' bound: the tree recurrence takes less, and
    # so do the Cat(n) paths of the walk, through n = 26
    _charge(_transfer_costs(range(1, max_n + 1), cap), cap, "verify counts")
    return map(verify_counts, range(1, max_n + 1))


def _suite_bijections(cap: int, n: int, samples: int, seed: int) -> Iterator[Check]:
    drawn = samples * max(0, n - 4)
    _charge([drawn], cap, "verify bijections",
            lambda _: f"up to n={n} draws {drawn} samples")
    k = min(n, 4)
    # the samples, the paths of size <= k and the (T, sigma) cases of size <= n
    paths = sum(labeled_catalan(m) for m in range(1, k + 1))
    _charge(chain((drawn, paths), _spct_costs(n)), cap, "verify bijections")
    rng = random.Random(seed)
    for m in range(1, n + 1):
        yield verify_pct_rt(m)
    for m in range(1, k + 1):
        yield verify_path_round_trips(m)
    for m in range(5, n + 1):
        yield verify_sampled_round_trips(m, samples, rng)


def _suite_classes(cap: int, max_size: int) -> Iterator[Check]:
    _charge(_spct_costs(max_size), cap, "verify classes")
    return map(verify_classes, _compositions(max_size))


def _suite_pairs(cap: int, max_n: int) -> Iterator[Check]:
    _charge((factorial(n) ** 2 for n in range(1, max_n + 1)), cap, "verify pairs",
            lambda tests: f"up to n={max_n} needs {tests} pair tests")
    return map(verify_pairs, range(1, max_n + 1))


# each suite, and the optional flags it takes with their defaults
_SUITES = {
    "hecke": (_suite_hecke, {"shape": None, "max_n": 4}),
    "counts": (_suite_counts, {"max_n": 4}),
    "bijections": (_suite_bijections, {"n": 4, "samples": 200, "seed": 0}),
    "classes": (_suite_classes, {"max_size": 5}),
    "pairs": (_suite_pairs, {"max_n": 4}),
}


def cmd_verify(cap: int, suite: str, **values) -> Outcome:
    checks = list(_SUITES[suite][0](cap, **values))
    rows = [row for row, _ in checks]
    witnesses = [witness for _, witness in checks if witness is not None]
    # the report names the sizes and the seed; the sample count shows in the rows
    params = {"suite": suite} | {
        k: v for k, v in values.items() if v is not None and k != "samples"}
    results: dict = {"checks": rows, "passed": not witnesses}
    if witnesses:
        results["counterexample"] = witnesses[0]
    return params, results, rows, 1 if witnesses else 0


# ---------------------------------------------------------------------------
# tk stats


def cmd_stats(cap: int, kind: str, n: int) -> Outcome:
    if n < 1:
        raise ValueError(f"--n must be at least 1: {n}")
    _charge(_transfer_costs([n], cap), cap, "stats quadruple",
            lambda _: f"at n={n} needs more than {cap} transfer steps")
    tableau_side = descent_quadruple_counts(n)
    tree_side = edge_stats_counts(n)
    quadruples = sorted(set(tableau_side) | set(tree_side))
    rows = [{"quadruple": ",".join(map(str, q)), "tableaux": tableau_side.get(q, 0),
             "trees": tree_side.get(q, 0)} for q in quadruples]
    equal = tableau_side == tree_side
    results = {
        "distribution": rows,
        "objects_per_side": labeled_catalan(n),
        "distinct_quadruples": len(quadruples),
        "equal": equal,
    }
    return {"kind": kind, "n": n}, results, rows, 0 if equal else 1


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


# (input JSON, the permutations the transform takes) -> output JSON
_TRANSFORMS: dict[str, Callable[..., dict]] = {
    "pct-to-rt": lambda js: pct_to_rt(_load_tableau(js, Tableau)).to_json(),
    "rt-to-pct": lambda js, sigma: rt_to_pct(_load_tableau(js, ReverseTableau),
                                             sigma).to_json(),
    "spct-to-ldyck": lambda js: spct_to_ldyck(_load_tableau(js, Tableau)).to_json(),
    "ldyck-to-spct": lambda js: ldyck_to_spct(ldyck_from_json(js)).to_json(),
    "ldyck-to-ltree": lambda js: tree_to_json(ldyck_to_ltree(ldyck_from_json(js))),
    "ltree-to-ldyck": lambda js: ltree_to_ldyck(tree_from_json(js)).to_json(),
}


def _realize_costs(a: Perm) -> Iterator[int]:
    # the C(n, 3) triples of the 312 scan, then n^2 for each of the l(a) + 2
    # columns labeled; l(a) is counted only when the scan fits the cap.  A
    # column's labels cost O(n log n), so n^2 is a loose bound, kept so that
    # the cap's boundaries do not move
    n = len(a)
    yield comb(n, 3)
    yield (len(inversions(a)) + 2) * n * n


def cmd_map(cap: int, transform: str, out: str | None = None, infile: str | None = None,
            **perms: str) -> Outcome:
    params: dict = {"transform": transform}
    inputs: list = []
    if infile is not None:  # every transform but realize-pair
        params["in"] = infile
        inputs.append(_load_json(infile))
    for flag, text in perms.items():
        perm = parse_permutation(text)
        params[flag] = format_permutation(perm)
        inputs.append(perm)
    if transform in _TRANSFORMS:
        produced = _TRANSFORMS[transform](*inputs)
    else:
        _charge(_realize_costs(inputs[0]), cap, "map realize-pair")
        produced = realize_sct(*inputs).to_json()

    results: dict = {"result": produced}
    if out is not None:
        _write_json(out, produced)
        results["output_file"] = out
    rows = [{"key": k, "value": v} for k, v in produced.items()]
    return params, results, rows, 0


# ---------------------------------------------------------------------------
# flags and parser


class Flag(NamedTuple):
    """One flag: its option string, help and value type, whether it is a
    count, and the metavar and the choices of its value."""
    option: str
    help: str
    type: Callable[[str], object] | None = None
    count: bool = False  # refused below zero
    metavar: str | None = None
    choices: tuple[str, ...] | None = None


# every flag of every command, keyed by the name its value is passed under
_FLAGS = {
    "format": Flag("--format", "report format (default json)",
                   choices=("json", "csv", "text")),
    "max_objects": Flag("--max-objects", f"object cap (default {DEFAULT_MAX_OBJECTS}; "
                        "env TK_MAX_OBJECTS also applies)", int, True, "N"),
    "seed": Flag("--seed", "seed of the samples", int),
    "shape": Flag("--shape", "composition such as 2,2,2"),
    "sigma": Flag("--sigma", "type of the rows, such as '3 1 2'"),
    "n": Flag("--n", "size, or the largest size a suite checks", int, True),
    "max_n": Flag("--max-n", "largest size", int, True),
    "max_size": Flag("--max-size", "largest shape size", int, True),
    "samples": Flag("--samples", "samples per size past the exhaustive range", int, True),
    "listing": Flag("--list", "write the full listing as JSON", metavar="FILE"),
    "infile": Flag("--in", "input JSON file, or - for stdin", metavar="FILE"),
    "out": Flag("--out", "write the result JSON here", metavar="FILE"),
    "a": Flag("--a", "first permutation"),
    "b": Flag("--b", "second permutation"),
}

# the flags every choice takes, with their defaults
_COMMON = {"format": "json", "max_objects": None}

# each command: its function, its help, the name of the positional argument
# that picks a choice, and each choice's flags with their defaults; the
# default ... marks a flag that the choice cannot run without
_COMMANDS = {
    "enumerate": (cmd_enumerate, "count a family", "kind", {
        "spct": {"shape": ..., "sigma": None, "listing": None},
        "srt": {"shape": ..., "listing": None},
        "ldyck": {"n": ..., "listing": None},
        "ltree": {"n": ..., "listing": None},
    }),
    "verify": (cmd_verify, "run an invariant suite", "suite",
               {suite: takes for suite, (_, takes) in _SUITES.items()}),
    "stats": (cmd_stats, "joint distribution tables with equality verdict", "kind",
              {"quadruple": {"n": ...}}),
    "map": (cmd_map, "apply one bijection", "transform",
            dict.fromkeys(_TRANSFORMS, {"infile": ..., "out": None}) | {
                "rt-to-pct": {"infile": ..., "out": None, "sigma": ...},
                "realize-pair": {"a": ..., "b": ..., "out": None},
            }),
}


def _helps(flags: Iterable[str], choices: dict[str, dict]) -> dict[str, str]:
    """The help of each of ``flags``, naming the ``choices`` that take it."""
    takers = {dest: ", ".join(c for c, takes in choices.items() if dest in takes)
              for dest in flags}
    return {dest: f"{_FLAGS[dest].help} ({names})" for dest, names in takers.items()}


# Every parser shares the flags every choice takes, and --seed, accepted
# everywhere so that a choice that does not take it refuses it by name, but
# shown only in the help of a command that takes it.
_SHARED = {dest: _FLAGS[dest].help for dest in _COMMON} | _helps(["seed"], {
    f"{name} {choice}": takes
    for name, (*_, choices) in _COMMANDS.items() for choice, takes in choices.items()})
_HELP = {name: _helps([dest for dest in dict.fromkeys(chain(*choices.values()))
                       if dest not in _SHARED], choices)
         for name, (*_, choices) in _COMMANDS.items()}


def _add_flags(parser: argparse.ArgumentParser, helps: dict[str, str]) -> None:
    for dest, help in helps.items():
        flag = _FLAGS[dest]
        parser.add_argument(flag.option, dest=dest, type=flag.type, metavar=flag.metavar,
                            choices=flag.choices, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tk",
        description="Composition tableaux, labeled Dyck paths, labeled "
        "binary trees, and the bijections connecting them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, positional, choices) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        seeded = any("seed" in takes for takes in choices.values())
        _add_flags(p, _SHARED if seeded else _SHARED | {"seed": argparse.SUPPRESS})
        p.add_argument(positional, choices=tuple(choices))
        _add_flags(p, _HELP[name])
    return parser


def _values(args: argparse.Namespace, name: str, choice: str, takes: dict) -> dict:
    """The value of each flag of ``takes``, the flags ``choice`` takes, given
    or defaulted.  Refuse any other flag of the command ``name``, a count
    below zero and a missing required flag."""
    values = _COMMON | takes
    for dest in chain(_SHARED, _HELP[name]):
        value = getattr(args, dest)
        if value is not None:
            flag = _FLAGS[dest]
            if dest not in values:
                raise ValueError(f"{name} {choice} does not take {flag.option}")
            if flag.count and value < 0:
                raise ValueError(f"{flag.option} must be nonnegative: {value}")
            values[dest] = value
    if choice == "hecke" and args.shape is not None:
        # one shape takes no size, so no default either
        if args.max_n is not None:
            raise ValueError("verify hecke takes --shape or --max-n, not both")
        values["max_n"] = None
    missing = [dest for dest, value in values.items() if value is ...]
    if missing:
        raise ValueError(f"{name} {choice} requires {_FLAGS[missing[0]].option}")
    return values


@cache
def _parser() -> argparse.ArgumentParser:
    # built by the first main, not at import, and kept: parsing leaves no
    # state on it, since every parse fills in a new namespace
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    run, _, positional, choices = _COMMANDS[args.command]
    choice = getattr(args, positional)
    try:
        values = _values(args, args.command, choice, choices[choice])
        fmt = values.pop("format")
        cap = _object_cap(values.pop("max_objects"))
        started = time.perf_counter()
        parameters, results, rows, code = run(cap, choice, **values)
        report = {
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "elapsed_seconds": round(time.perf_counter() - started, 6),
        }
        try:
            _emit(fmt, report, rows)
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
