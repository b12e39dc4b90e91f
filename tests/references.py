"""Slow, direct references that the tests check the library against."""

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from tabkit.core import _packed, _places, _unpacked
from tabkit.dyck import DyckPath
from tabkit.hecke import DescentClass, _classify, pi
from tabkit.tableaux import (
    ReverseTableau,
    Tableau,
    _is_source,
    _quadruple,
    positions,
)
from tabkit.trees import Node


def recorded_checks(argv: str) -> list[dict]:
    """The rows of the ``tk`` report recorded for ``argv`` in
    ``cli_exhaustive.json``."""
    recorded = json.loads((Path(__file__).parent / "cli_exhaustive.json").read_text())
    return recorded[argv]["results"]["checks"]


def is_standard(t: Tableau | ReverseTableau) -> bool:
    """True iff the entries are exactly 1 through the number of cells."""
    entries = sorted(x for row in t.rows for x in row)
    return entries == list(range(1, t.size + 1))


def apply_word(t: Tableau, word: Sequence[int]) -> Tableau | None:
    """Apply operators right to left, None standing for the absorbing zero."""
    state: Tableau | None = t
    for i in reversed(word):
        if state is None:
            return None
        result = pi(state, i)
        state = result.tableau
    return state


def is_sink(t: Tableau) -> bool:
    """Every descent is attacking."""
    pos = positions(t)
    return all(
        _classify(*pos[i], *pos[i + 1]) is not DescentClass.NONATTACKING
        for i in range(1, t.size)
    )


def srt_to_dyck(T: ReverseTableau) -> DyckPath:
    """Two-column standard reverse tableaux to unlabeled paths: step i is an
    up-step exactly when i sits in the second column."""
    if any(len(row) != 2 for row in T.rows):
        raise ValueError(f"shape must be a two-column rectangle: {T.shape}")
    pos = positions(T)  # raises unless standard
    return DyckPath(
        tuple("U" if pos[i][1] == 2 else "D" for i in range(1, T.size + 1))
    )


@dataclass(frozen=True)
class LeftPath:
    """One maximal left path: labels root to leaf, and the label of the node
    whose right child starts the path (None for the path holding the root)."""

    labels: tuple[int, ...]
    parent: int | None


def mlpd(t: Node) -> tuple[LeftPath, ...]:
    """Maximal left path decomposition; the root path comes first, then the
    paths hanging off it in root-to-leaf order, recursively.

    >>> mlpd(Node(2, Node(1), Node(3)))
    (LeftPath(labels=(2, 1), parent=None), LeftPath(labels=(3,), parent=2))
    """
    out: list[LeftPath] = []
    # the tops of the paths still to read, with their parents; the path
    # hanging highest on the chain just read is read next
    stack: list[tuple[Node, int | None]] = [(t, None)]
    while stack:
        top, parent = stack.pop()
        chain: list[Node] = []
        node: Node | None = top
        while node:
            chain.append(node)
            node = node.left
        out.append(LeftPath(tuple(v.label for v in chain), parent))
        stack.extend((v.right, v.label) for v in reversed(chain) if v.right)
    return tuple(out)


def reference_census(n: int, levels: list | None = None) -> tuple[Counter, int]:
    """``tableaux.two_column_census`` as one step per (state, move): each
    move works out its quadruple step and source rule from the two cells,
    and each level is a dict of ``Counter``s.  With a list for levels, the
    number of (state, quadruple) entries of each level is appended to it."""
    places = _places(n)
    start = ((0,) * n, None)
    level: dict = {start: Counter({0: 1})}
    sources: dict = {start: 1}
    for _ in range(2 * n):
        reached: dict = {}
        reached_sources: dict = {}
        for (marks, last), counts in level.items():
            walks_to_sources = sources.get((marks, last), 0)
            moves = [(q, 1) for q, mark in enumerate(marks) if not mark]
            if 1 in marks:
                moves.append((marks.index(1), 2))
            for q, col in moves:
                if col == 1:
                    state = (marks[:q] + (1,) + marks[q + 1 :], (2 * q + 1, 1))
                else:
                    state = (marks[:q] + marks[q + 1 :], (2 * q, 2))
                step, source = 0, True
                if last is not None:
                    rows, cols = (last[0], 2 * q + 1), (last[1], col)
                    step = _packed(_quadruple(rows, cols), places)
                    source = _is_source(rows, cols)
                target = reached.setdefault(state, Counter())
                for key, ways in counts.items():
                    target[key + step] += ways
                if source and walks_to_sources:
                    reached_sources[state] = (
                        reached_sources.get(state, 0) + walks_to_sources
                    )
        level, sources = reached, reached_sources
        if levels is not None:
            levels.append(sum(map(len, level.values())))
    end = ((), (0, 2))
    return _unpacked(level[end], n), sources.get(end, 0)
