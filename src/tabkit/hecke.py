"""Descent operators on standard composition tableaux.

For a standard tableau and 1 <= i < n, the entries i and i+1 are attacking
when they share a column, or sit in adjacent columns with i+1 strictly
southeast of i.  The operator pi_i fixes the tableau when i is not a descent,
kills it (a formal zero) when i is an attacking descent, and otherwise swaps
the entries i and i+1.  These operators are idempotent, commute at distance
two or more, and satisfy the braid relation, with zero absorbing.

Tableaux sharing all standardized column words form an equivalence class;
every class contains exactly one source (each non-descent i < n has i+1
immediately to its left) and exactly one sink (every descent attacking).

The relation and class checks read one table of operator images per shape,
built by ``_images``, the one statement of the rule, on the row words of the
enumeration walk and the columns the walk filled as it placed each letter.
One pass over each word decides every pi_i from integer tests on the rows
and columns of i and i+1: a fixed cell is the word's own index, a zero is
-1, and only a move builds a word, the two letters swapped, looked up among
the shape's words.  ``pi`` runs ``_images`` on a window of one ``Tableau``:
the two-letter word of the rows of i+1 and i, with their columns from
``positions``.  The relations are checked column by column: column i lists
the image of every word under pi_i, and each side of a relation composes
whole columns, compared as lists.  The class check groups the same words by
a key read from their rows and columns, and tests every move and each
class's one source and one sink on the words alone; only
``equivalence_classes`` builds a ``Tableau`` per member.
``verify_relations`` and ``verify_classes`` return the row and witness of
one shape for ``tk verify hecke`` and ``tk verify classes``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

from .core import Composition, Perm, apply_left_swap, format_composition
from .tableaux import (
    Tableau,
    Word,
    _cells,
    _is_source,
    _nonempty,
    _rows,
    _spct_walk,
    positions,
)

__all__ = [
    "HeckeResult",
    "EquivalenceClass",
    "RelationReport",
    "pi",
    "verify_hecke_relations",
    "verify_relations",
    "is_source",
    "equivalence_classes",
    "verify_classes",
]


@dataclass(frozen=True)
class HeckeResult:
    """Outcome of one operator application: fixed, zero, or a new tableau."""

    kind: str  # "fixed" | "zero" | "moved"
    tableau: Tableau | None  # the input if fixed, the image if moved, else None


def pi(t: Tableau, i: int) -> HeckeResult:
    """Apply the i-th descent operator.

    The rule is the table's, ``_images``, on the window of i+1 and i: the
    two-letter word of their rows, with their columns, from ``positions``.
    A moved image is the filling with i and i+1 interchanged, and is not
    revalidated here; ``verify_hecke_relations`` checks every moved image
    of its table.

    Raises ValueError unless i is an int in 1..n-1; a bool is not.
    """
    pos = positions(t)
    # exact type test: a float passes the range test, and a bool is an int
    if type(i) is not int or not 1 <= i <= t.size - 1:
        raise ValueError(f"index must be an integer in 1..{t.size - 1}: {i!r}")
    (r1, c1), (r2, c2) = pos[i], pos[i + 1]
    # the window's own index is 0 and it lists no other word, so a move
    # reads None
    (image,) = _images((r2, r1), (c2, c1), 0, {})
    if image == 0:
        return HeckeResult("fixed", t)
    if image == -1:
        return HeckeResult("zero", None)
    return HeckeResult("moved",
                       Tableau._trusted(tuple(apply_left_swap(row, i) for row in t.rows)))


@dataclass(frozen=True)
class RelationReport:
    passed: bool
    shape: tuple[int, ...]
    tableaux: int
    checks: int
    counterexample: str | None


def _swap(word: Word, p: int) -> Word:
    # the word with its letters at p - 1 and p interchanged: the filling with
    # the entries n - p and n - p + 1 swapped, which sit in different rows
    return word[: p - 1] + (word[p], word[p - 1]) + word[p + 1 :]


def _images(word: Word, cols: Sequence[int], k: int,
            index: dict[Word, int]) -> list[int | None]:
    # The one statement of the operator rule, on a row word and the column
    # of each letter.  Entry i-1 of the result is the image under pi_i of
    # the word of index k: k when i+1 is strictly left of i (not a descent);
    # -1, the zero, when i and i+1 attack (one column, or adjacent columns
    # with i+1 strictly below i); otherwise the index of the word with the
    # two letters swapped, or None when ``index`` does not list it.  Entry i
    # sits at p = len(word) - i and i+1 just before it.
    images = []
    for p in range(len(word) - 1, 0, -1):
        c1, c2 = cols[p], cols[p - 1]
        if c2 < c1:
            images.append(k)
        elif c2 == c1 or (c2 == c1 + 1 and word[p - 1] > word[p]):
            images.append(-1)
        else:
            images.append(index.get(_swap(word, p)))
    return images


def _action(shape: Composition
            ) -> tuple[list[Word], list[list[int]], list[list[int | None]]]:
    # the row words the walk lists for the shape, the column of each letter,
    # as the walk placed it, and the table of operator images: row k, entry
    # i-1, is the index of pi_i(words[k]) in the list, from ``_images``
    words, columns = [], []
    for word, cols, _ in _spct_walk(shape):
        words.append(word)
        columns.append(cols[:])
    index = {w: k for k, w in enumerate(words)}
    return words, columns, [_images(w, cols, k, index)
                            for k, (w, cols) in enumerate(zip(words, columns))]


def _moves(table: list[list[int | None]]) -> Iterator[tuple[int, int, int | None]]:
    # (k, i, m) for each move of words[k] by pi_i, to words[m], or with m
    # None when the image is not listed; a fixed cell (k) or a zero (-1) is
    # no move
    for k, row in enumerate(table):
        for i, m in enumerate(row, start=1):
            if m != k and m != -1:
                yield k, i, m


def verify_hecke_relations(shape: Sequence[int]) -> RelationReport:
    """Check idempotence, distant commutation, and the braid relation
    pointwise on every standard tableau of the given shape.

    Each pi_i is applied once per tableau, into one table.  First every
    moved image must be a member of the shape's enumeration (its valid
    standard tableaux) of the same type, or it is the counterexample; this
    check does not count in ``checks``.  Then column i of the table, the
    image of every tableau under pi_i with the zero last, is an index map,
    and each side of a relation is composed from whole columns, one list
    comprehension per operator.  That costs a few list passes per relation
    instead of a Python loop per (tableau, relation), and reports what that
    loop would: the earliest tableau, then the earliest relation, that
    fails, with ``checks`` counting the pairs up to it.
    """
    shape = _nonempty(shape)
    n = sum(shape)
    words, _, table = _action(shape)
    # the rows in the order their first-column entries arrive fix the type
    types = [tuple(dict.fromkeys(w)) for w in words]

    def fail(checks: int, witness: str) -> RelationReport:
        return RelationReport(False, shape, len(words), checks, witness)

    for k, i, m in _moves(table):
        if m is None or types[m] != types[k]:
            w = words[k]
            image = _rows(_swap(w, len(w) - i) if m is None else words[m])
            return fail(0, f"pi_{i} image {image} of {_rows(w)} "
                           "is not a valid standard tableau of the same type")
    # columns[i - 1][k] is the index of pi_i(words[k]); the zero, at index
    # -1, is fixed by every pi_i
    columns = [[*column, -1] for column in zip(*table)]
    # each relation's name is formatted from its left side only when it fails
    relations = (
        [("pi_{0}^2 != pi_{0}", (i, i), (i,)) for i in range(1, n)]
        + [("pi_{0} pi_{1} != pi_{1} pi_{0}", (i, j), (j, i))
           for i, j in combinations(range(1, n), 2) if j - i >= 2]
        + [("braid relation fails at i={0}", (i, i + 1, i), (i + 1, i, i + 1))
           for i in range(1, n - 1)]
    )

    def images(word: tuple[int, ...]) -> list[int]:
        # the image of every tableau, and of the zero, under the operators
        # of word, applied right to left
        *rest, last = word
        result = columns[last - 1]
        for i in reversed(rest):
            column = columns[i - 1]
            result = [column[m] for m in result]
        return result

    # (k, r) for the first tableau k on which relation r fails
    failures = []
    for r, (_, left, right) in enumerate(relations):
        lhs, rhs = images(left), images(right)
        if lhs != rhs:
            failures.append((next(k for k, (a, b) in enumerate(zip(lhs, rhs))
                                  if a != b), r))
    if failures:
        k, r = min(failures)
        name, left, _ = relations[r]
        return fail(k * len(relations) + r + 1,
                    f"{name.format(*left)} on {_rows(words[k])}")
    return RelationReport(True, shape, len(words), len(words) * len(relations), None)


def verify_relations(shape: Sequence[int]) -> tuple[dict, str | None]:
    """The row of ``tk verify hecke`` for one shape, read from its
    ``verify_hecke_relations`` report, and the counterexample or None."""
    rep = verify_hecke_relations(shape)
    name = format_composition(shape)
    row = {"shape": name, "tableaux": rep.tableaux, "checks": rep.checks,
           "pass": rep.passed}
    return row, None if rep.passed else f"shape {name}: {rep.counterexample}"


def is_source(t: Tableau) -> bool:
    """Every non-descent i < n has i+1 in the cell immediately to its left."""
    return _is_source(*_cells(t))


@dataclass(frozen=True)
class EquivalenceClass:
    """All tableaux of one shape sharing every standardized column word.

    Every member reaches the sink by moves: a move swaps a nonattacking
    descent i, i+1 with c(i+1) > c(i), so it lowers the sum of entry times
    column by c(i+1) - c(i) > 0.  Every chain of moves therefore ends, inside
    the class, at a member with no move, and the class has exactly one.
    """

    signature: tuple[Perm, ...]
    members: tuple[Tableau, ...]
    source: Tableau
    sink: Tableau


def _class_key(word: Word, cols: list[int]) -> tuple[int, ...]:
    # the row of every entry, column by column and, within a column, largest
    # entry first.  The shape fixes how many entries each column has, so on
    # one shape this fixes, and is fixed by, every standardized column word.
    return tuple([word[p] for p in sorted(range(len(word)), key=cols.__getitem__)])


def _signature(key: tuple[int, ...], heights: Sequence[int]) -> tuple[Perm, ...]:
    # ``st_word`` of the class of a key, on a shape whose columns have these
    # heights: a column's entries are distinct, so the one at index k of its
    # part of the key (largest first) ranks h - k, and its row places it in
    # the column word
    signature = []
    start = 0
    for h in heights:
        rows = key[start : start + h]
        signature.append(tuple(h - k for k in sorted(range(h), key=rows.__getitem__)))
        start += h
    return tuple(signature)


def _heights(shape: Composition) -> list[int]:
    # the height of each column of the shape
    return [sum(part > j for part in shape) for j in range(max(shape))]


def _grouped(shape: Composition
             ) -> tuple[list[Word], dict[tuple[int, ...], tuple[list[int], int, int]]]:
    # The class check, on the row words of the walk: the words, and by class
    # key the indices of its words in walk order, its source and its sink.
    # One table of operator images gives every move, and a move to a word
    # that is not listed or of another key raises AssertionError; so does a
    # class without exactly one source and one sink, naming the first such
    # class by signature.  Rows and signatures are read only to fail.
    words, columns, table = _action(shape)
    by_key: dict[tuple[int, ...], list[int]] = {}
    groups = []  # groups[k]: the indices of the class of words[k], shared
    for k, (word, cols) in enumerate(zip(words, columns)):
        group = by_key.setdefault(_class_key(word, cols), [])
        group.append(k)
        groups.append(group)
    movers = set()
    for k, i, m in _moves(table):
        if m is None or groups[m] is not groups[k]:
            raise AssertionError(f"pi_{i} moves {_rows(words[k])} out of its class")
        movers.add(k)
    classes, failures = {}, []
    for key, ks in by_key.items():
        sources = [k for k in ks if _is_source(words[k], columns[k])]
        sinks = [k for k in ks if k not in movers]
        if len(sources) != 1 or len(sinks) != 1:
            failures.append((key, len(sources), len(sinks)))
        else:
            classes[key] = (ks, sources[0], sinks[0])
    if failures:
        heights = _heights(shape)
        signature, s, t = min((_signature(key, heights), s, t) for key, s, t in failures)
        raise AssertionError(f"class {signature} has {s} sources and {t} sinks")
    return words, classes


def equivalence_classes(shape: Sequence[int]) -> tuple[EquivalenceClass, ...]:
    """Partition the standard tableaux of a shape by standardized column word.

    Classes are sorted by signature; members by their rows.  The class check
    of ``verify_classes`` runs first, on the row words: one table of
    operator images gives every move, and a move between two signatures, or
    a class without exactly one source and one sink, raises AssertionError.
    Each class records its unique source and its sink, the one member that
    no pi_i moves.  A move lowers the sum of entry times column, so every
    member's moves lead to the sink (see ``EquivalenceClass``).  The
    tableaux, signatures and sorts are built only here.
    """
    shape = _nonempty(shape)
    words, groups = _grouped(shape)
    heights = _heights(shape)
    tableaux = [Tableau._trusted(_rows(w)) for w in words]
    classes = []
    # the signature of each class is read off its key, and orders the classes
    for signature, (ks, source, sink) in sorted((_signature(key, heights), group)
                                                for key, group in groups.items()):
        members = sorted((tableaux[k] for k in ks), key=attrgetter("rows"))
        classes.append(EquivalenceClass(signature, tuple(members),
                                        tableaux[source], tableaux[sink]))
    return tuple(classes)


def verify_classes(shape: Sequence[int]) -> tuple[dict, str | None]:
    """The row of ``tk verify classes`` for one shape, and the message of the
    ``AssertionError`` of its class check or None."""
    name = format_composition(shape)
    try:
        _, classes = _grouped(_nonempty(shape))
    except AssertionError as exc:
        return {"shape": name, "classes": 0, "pass": False}, f"shape {name}: {exc}"
    return {"shape": name, "classes": len(classes), "pass": True}, None
