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
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .core import Perm, check_composition
from .tableaux import Tableau, enumerate_spct, positions, st_column, st_word

__all__ = [
    "DescentClass",
    "HeckeResult",
    "EquivalenceClass",
    "RelationReport",
    "classify",
    "swap_entries",
    "pi",
    "apply_word",
    "verify_hecke_relations",
    "is_source",
    "is_sink",
    "equivalence_classes",
    "class_report_json",
    "orbit_dot",
]


class DescentClass(Enum):
    NOT_DESCENT = "not-descent"
    ATTACKING = "attacking-descent"
    NONATTACKING = "nonattacking-descent"


@dataclass(frozen=True)
class HeckeResult:
    """Outcome of one operator application: fixed, zero, or a new tableau."""

    kind: str  # "fixed" | "zero" | "moved"
    tableau: Tableau | None  # the input if fixed, the image if moved, else None


def _classify(pos: dict[int, tuple[int, int]], i: int) -> DescentClass:
    (r1, c1), (r2, c2) = pos[i], pos[i + 1]
    if c2 < c1:
        return DescentClass.NOT_DESCENT
    # same column, or adjacent columns with i+1 strictly southeast of i
    if c1 == c2 or (c2 == c1 + 1 and r2 > r1):
        return DescentClass.ATTACKING
    return DescentClass.NONATTACKING


def classify(t: Tableau, i: int) -> DescentClass:
    """Is i a descent of t, and if so, are i and i+1 attacking?"""
    pos = positions(t)
    if not 1 <= i <= t.size - 1:
        raise ValueError(f"index out of range: {i}")
    return _classify(pos, i)


def swap_entries(t: Tableau, i: int) -> Tableau:
    """The filling with entries i and i+1 interchanged.

    Raises ValueError unless i is a positive integer; then the swap keeps
    every entry a positive integer, so the image is not checked again.
    """
    # exact type test: bool is an int subclass and must not pass
    if type(i) is not int or i < 1:
        raise ValueError(f"index must be a positive integer: {i!r}")
    return Tableau._trusted(
        tuple(
            tuple(i + 1 if x == i else i if x == i + 1 else x for x in row)
            for row in t.rows
        )
    )


def _image(t: Tableau, kind: DescentClass, i: int) -> HeckeResult:
    if kind is DescentClass.NOT_DESCENT:
        return HeckeResult("fixed", t)
    if kind is DescentClass.ATTACKING:
        return HeckeResult("zero", None)
    return HeckeResult("moved", swap_entries(t, i))


def pi(t: Tableau, i: int) -> HeckeResult:
    """Apply the i-th descent operator.

    A moved result is not revalidated here.  ``verify_hecke_relations``
    checks that every moved image is a standard tableau of the same shape
    and type, and the tests check that on every shape of size at most 6.
    """
    return _image(t, classify(t, i), i)


def apply_word(t: Tableau, word: Sequence[int]) -> Tableau | None:
    """Apply operators right to left, None standing for the absorbing zero."""
    state: Tableau | None = t
    for i in reversed(word):
        if state is None:
            return None
        result = pi(state, i)
        state = result.tableau
    return state


@dataclass(frozen=True)
class RelationReport:
    passed: bool
    shape: tuple[int, ...]
    tableaux: int
    checks: int
    counterexample: str | None


def _action(tableaux: Sequence[Tableau]) -> list[list[int | None]]:
    # row k, entry i-1: the index of pi_i(tableaux[k]) in the list, so k
    # when pi_i fixes it; -1 when zero, None when the image is not listed
    index = {None: -1} | {t: k for k, t in enumerate(tableaux)}
    table = []
    for t in tableaux:
        pos = positions(t)
        table.append([index.get(_image(t, _classify(pos, i), i).tableau)
                      for i in range(1, t.size)])
    return table


def verify_hecke_relations(shape: Sequence[int]) -> RelationReport:
    """Check idempotence, distant commutation, and the braid relation
    pointwise on every standard tableau of the given shape.

    Each pi_i is applied once per tableau, and the relations are checked as
    identities on that table.  First every moved image must be a member of
    the shape's enumeration (its valid standard tableaux) of the same type,
    or it is the counterexample; this check does not count in ``checks``.
    """
    shape = check_composition(shape)
    n = sum(shape)
    tableaux = list(enumerate_spct(shape))
    table = _action(tableaux)
    types = [st_column(t, 1) for t in tableaux]
    checks = 0

    def fail(witness: str) -> RelationReport:
        return RelationReport(False, shape, len(tableaux), checks, witness)

    for k, t in enumerate(tableaux):
        for i, m in enumerate(table[k], start=1):
            if m is None or (m >= 0 and types[m] != types[k]):
                return fail(f"pi_{i} image {pi(t, i).tableau.rows} of {t.rows} "
                            "is not a valid standard tableau of the same type")
    table.append([-1] * (n - 1))  # the zero, at index -1, fixed by every pi_i
    relations = (
        [(f"pi_{i}^2 != pi_{i}", (i, i), (i,)) for i in range(1, n)]
        + [(f"pi_{i} pi_{j} != pi_{j} pi_{i}", (i, j), (j, i))
           for i, j in combinations(range(1, n), 2) if j - i >= 2]
        + [(f"braid relation fails at i={i}", (i, i + 1, i), (i + 1, i, i + 1))
           for i in range(1, n - 1)]
    )

    def image(k: int, word: tuple[int, ...]) -> int:
        for i in reversed(word):  # right to left
            k = table[k][i - 1]
        return k

    for k, t in enumerate(tableaux):
        for name, left, right in relations:
            checks += 1
            if image(k, left) != image(k, right):
                return fail(f"{name} on {t.rows}")
    return RelationReport(True, shape, len(tableaux), checks, None)


def is_source(t: Tableau) -> bool:
    """Every non-descent i < n has i+1 in the cell immediately to its left."""
    pos = positions(t)
    for i in range(1, t.size):
        (r1, c1), (r2, c2) = pos[i], pos[i + 1]
        if c2 < c1 and not (r2 == r1 and c2 == c1 - 1):
            return False
    return True


def is_sink(t: Tableau) -> bool:
    """Every descent is attacking."""
    pos = positions(t)
    return all(
        _classify(pos, i) is not DescentClass.NONATTACKING
        for i in range(1, t.size)
    )


@dataclass(frozen=True)
class EquivalenceClass:
    """All tableaux of one shape sharing every standardized column word.

    ``moved_connected`` is always True: a move swaps a nonattacking descent
    i, i+1 with c(i+1) > c(i), so it lowers the sum of entry times column by
    c(i+1) - c(i) > 0.  Every chain of moves therefore ends, inside the
    class, at a member with no move, and the class has exactly one: its sink.
    """

    signature: tuple[Perm, ...]
    members: tuple[Tableau, ...]
    source: Tableau
    sink: Tableau
    moved_connected: bool


def equivalence_classes(shape: Sequence[int]) -> tuple[EquivalenceClass, ...]:
    """Partition the standard tableaux of a shape by standardized column word.

    Classes are sorted by signature; members by their rows.  One table of
    operator images over the shape gives every move, and a move between two
    signatures raises AssertionError.  Each class records its unique source
    and its sink, the one member that no pi_i moves.  A move lowers the sum
    of entry times column, so every member's moves lead to the sink and the
    class is connected (see ``EquivalenceClass``).
    """
    tableaux = sorted(enumerate_spct(shape), key=lambda t: t.rows)
    signatures = [st_word(t) for t in tableaux]
    movers = set()
    for k, i, m in _moves(tableaux):
        if signatures[m] != signatures[k]:
            raise AssertionError(f"pi_{i} moves {tableaux[k].rows} out of its class")
        movers.add(k)
    by_signature: dict[tuple[Perm, ...], list[int]] = {}
    for k, signature in enumerate(signatures):
        by_signature.setdefault(signature, []).append(k)
    classes = []
    for signature in sorted(by_signature):
        members = tuple(tableaux[k] for k in by_signature[signature])
        sources = [t for t in members if is_source(t)]
        sinks = [tableaux[k] for k in by_signature[signature] if k not in movers]
        if len(sources) != 1 or len(sinks) != 1:
            raise AssertionError(f"class {signature} has {len(sources)} sources "
                                 f"and {len(sinks)} sinks")
        classes.append(EquivalenceClass(signature, members, sources[0], sinks[0], True))
    return tuple(classes)


def _moves(tableaux: list[Tableau]) -> Iterator[tuple[int, int, int]]:
    # (k, i, m) for each move of tableaux[k] to tableaux[m] by pi_i
    for k, row in enumerate(_action(tableaux)):
        for i, m in enumerate(row, start=1):
            if m is None:
                raise AssertionError(f"pi_{i} moves {tableaux[k].rows} out of its class")
            if m != k and m >= 0:
                yield k, i, m


def class_report_json(classes: Sequence[EquivalenceClass]) -> list[dict]:
    return [
        {
            "signature": [list(p) for p in c.signature],
            "size": len(c.members),
            "source": c.source.to_json(),
            "sink": c.sink.to_json(),
            "moved_connected": c.moved_connected,
        }
        for c in classes
    ]


def orbit_dot(shape: Sequence[int]) -> str:
    """DOT digraph of all moved transitions on the tableaux of one shape."""
    tableaux = sorted(enumerate_spct(shape), key=lambda t: t.rows)
    lines = ["digraph orbits {"]
    for k, t in enumerate(tableaux):
        label = "/".join(",".join(map(str, row)) for row in t.rows)
        lines.append(f'  t{k} [label="{label}"];')
    for k, i, m in _moves(tableaux):
        lines.append(f'  t{k} -> t{m} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)
