"""Allowable permutation pairs and graph realization of standard tableaux.

A pair (a, b) of permutations of [n] is allowable when it avoids two
patterns simultaneously: no positions i < j with a(i) > a(j) and b(i) < b(j)
(equivalently a is below b in the left weak order), and no positions
i < j < k where the a-values increase while the b-values form the pattern
312.  The number of allowable pairs in the symmetric group on n letters is
(n+1)^(n-1).

An allowable sequence (s_1, ..., s_k) determines a directed graph on the
grid of nodes (i, j) with 1 <= i <= n rows and 1 <= j <= k columns:

- horizontal edges (i, j) -> (i, j+1);
- vertical edges (p, j) -> (i, j) whenever s_j(i) < s_j(p);
- diagonal edges (p, j) -> (i, j-1) whenever i < p and s_j(i) < s_j(p).

The graph is acyclic, and labeling its nodes 1..kn so that every edge points
from a larger label to a smaller one produces a standard tableau of
rectangle shape (k, ..., k) whose j-th column standardizes to s_j.

``topological_spct`` labels a graph canonically: each label goes to the
smallest (column, row) whose out-neighbors are all labeled.  ``realize_sct``
computes that same labeling from the permutations alone, with no graph.
The vertical edges make column j take its labels in increasing s_j order,
so each column has one candidate node, ready once its row is labeled in
column j+1: on an allowable sequence, which ``realize_sct`` checks first,
the diagonal edges never hold it back.  That takes O(k n log n) time for
the per-column sorts plus O(k n) for the labels, and O(k n) memory, where
the graph holds O(k n^2) edges.  ``build_graph``, ``PermGraph``,
``is_acyclic`` and ``topological_spct`` stay as the graph API, and the
tests check the direct labeling against them.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations

from .core import (
    Perm,
    apply_left_swap,
    check_permutation,
    inversions,
    left_cover_swaps,
    maximal_chain_to,
    weak_bruhat_leq,
)
from .hecke import _class_key, _signature
from .tableaux import Tableau, _spct_walk

__all__ = [
    "PermGraph",
    "is_2112_avoiding",
    "is_123312_avoiding",
    "is_allowable_pair",
    "is_allowable_sequence",
    "allowable_pairs",
    "verify_pairs",
    "build_graph",
    "is_acyclic",
    "topological_spct",
    "realize_sct",
]

Node = tuple[int, int]  # (row, column), both 1-indexed
Edge = tuple[Node, Node, str]  # (source, target, kind)


# no i < j has a(i) > a(j) while b(i) < b(j): on permutations, a lies below b
# in the left weak order, so that loop is this test, bound without a wrapper
is_2112_avoiding = weak_bruhat_leq


def is_123312_avoiding(a: Perm, b: Perm) -> bool:
    """True iff no i < j < k has increasing a-values and b-values in the
    pattern 312 (middle smallest, first largest).

    >>> is_123312_avoiding((1, 2, 3), (3, 1, 2))
    False
    >>> is_123312_avoiding((3, 2, 1), (3, 1, 2))
    True
    """
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if a[i] < a[j] < a[k] and b[j] < b[k] < b[i]:
                    return False
    return True


def is_allowable_pair(a: Perm, b: Perm) -> bool:
    """True iff (a, b) avoids both patterns."""
    return is_2112_avoiding(a, b) and is_123312_avoiding(a, b)


def is_allowable_sequence(seq: tuple[Perm, ...]) -> bool:
    """True iff every consecutive pair of the sequence is allowable."""
    if not seq:
        raise ValueError("empty sequence")
    n = len(seq[0])
    for p in seq:
        check_permutation(p)
        if len(p) != n:
            raise ValueError(f"size mismatch: {len(p)} vs {n}")
    return all(is_allowable_pair(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def allowable_pairs(n: int) -> Iterator[tuple[Perm, Perm]]:
    """All allowable pairs in the symmetric group on n letters, in
    lexicographic order; there are (n+1)^(n-1) of them.  A negative n is
    refused at the call."""
    if n < 0:
        raise ValueError(f"n must be nonnegative: {n}")
    perms = list(permutations(range(1, n + 1)))
    return ((a, b) for a in perms for b in perms if is_allowable_pair(a, b))


def _pair_bits(p: Perm) -> int:
    """The 2112 bits of p: bit i*n + j for each inversion (i, j) of p.  A
    pair (a, b) avoids 2112 iff a's bits are all among b's."""
    n = len(p)
    return sum(1 << i * n + j for i, j in inversions(p))


def _triple_bits(p: Perm) -> tuple[int, int]:
    """The 123 bits and the 312 bits of p: bit (i*n + j)*n + k for each
    position triple i < j < k where p reads 123, and for each where it reads
    312.  A pair (a, b) avoids 123-312 iff a's 123 bits miss b's 312 bits."""
    n = len(p)
    inc = p312 = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                bit = 1 << (i * n + j) * n + k
                if p[i] < p[j] < p[k]:
                    inc |= bit
                elif p[j] < p[k] < p[i]:
                    p312 |= bit
    return inc, p312


def verify_pairs(n: int) -> tuple[dict, str | None]:
    """The paper's checks on the pairs of size n, as the row of ``tk verify
    pairs``: the number of allowable pairs against (n+1)^(n-1); for each a,
    its 2112-avoiders among all n! candidates b against its up-set in the
    left weak order, built from the covers alone (``weak_order_agrees``);
    every weak-order cover among the allowable pairs found
    (``covers_allowable``); and, for n <= 4, the pairs equal to the column
    types of the two-column standard tableaux (``matches_tableau_pairs``).
    The row is returned with itself as the witness when it fails, and None
    when it passes.

    Each candidate costs two bit operations on per-permutation tables
    (``_pair_bits``, ``_triple_bits``), not a pattern scan; the scans
    ``is_2112_avoiding`` and ``is_123312_avoiding`` stay the single-pair
    predicates, and the tests hold the bit tests to them.

    >>> verify_pairs(3)[0]["pairs"]
    16
    """
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    perms = list(permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(perms)}
    inv = [_pair_bits(p) for p in perms]
    lacks = [~bits for bits in inv]
    inc, p312 = zip(*map(_triple_bits, perms))
    covers = [[index[apply_left_swap(p, v)] for v in left_cover_swaps(p)] for p in perms]
    # each cover of p puts v + 1 where p has v, at the first position they
    # differ, so it comes later in lexicographic order: walking the list
    # backwards finds every cover's up-set complete
    up = [0] * len(perms)
    for i in reversed(range(len(perms))):
        up[i] = 1 << i
        for j in covers[i]:
            up[i] |= up[j]
    pairs = set()
    agree = True
    for i, below in enumerate(inv):
        avoiders = 0
        for j in [j for j, lack in enumerate(lacks) if not below & lack]:
            avoiders |= 1 << j
            if not inc[i] & p312[j]:
                pairs.add((i, j))
        agree = agree and avoiders == up[i]
    report = {
        "n": n,
        "pairs": len(pairs),
        "expected": (n + 1) ** (n - 1),
        "weak_order_agrees": agree,
        "covers_allowable": all((i, j) in pairs for i, js in enumerate(covers) for j in js),
    }
    if n <= 4:
        # the column types of each class, read once off its key
        keys = {_class_key(word, cols) for word, cols, _ in _spct_walk((2,) * n)}
        columns = {_signature(key, (n, n)) for key in keys}
        report["matches_tableau_pairs"] = columns == {(perms[i], perms[j]) for i, j in pairs}
    # the count matches and every verdict holds
    verdicts = [value for value in report.values() if isinstance(value, bool)]
    report["pass"] = len(pairs) == report["expected"] and all(verdicts)
    return report, None if report["pass"] else f"n={n}: {report}"


@dataclass(frozen=True)
class PermGraph:
    """Directed graph on an n-row, k-column grid of nodes with tagged edges."""

    n: int
    k: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        for src, dst, kind in self.edges:
            for i, j in (src, dst):
                if not (1 <= i <= self.n and 1 <= j <= self.k):
                    raise ValueError(f"node {(i, j)} outside the {self.n}x{self.k} grid")
            if kind not in ("horizontal", "vertical", "diagonal"):
                raise ValueError(f"unknown edge kind: {kind}")

    @property
    def nodes(self) -> list[Node]:
        return [(i, j) for i in range(1, self.n + 1) for j in range(1, self.k + 1)]


def build_graph(seq: tuple[Perm, ...]) -> PermGraph:
    """The grid graph of an allowable sequence; rejects anything else."""
    seq = tuple(seq)
    if len(seq) < 2:
        raise ValueError(f"need at least two permutations: {len(seq)}")
    if not is_allowable_sequence(seq):
        raise ValueError(f"sequence is not allowable: {seq}")
    n = len(seq[0])
    k = len(seq)
    edges: set[Edge] = set()
    for j in range(1, k + 1):
        sigma = seq[j - 1]
        for i in range(1, n + 1):
            if j < k:
                edges.add(((i, j), (i, j + 1), "horizontal"))
            for p in range(1, n + 1):
                if sigma[i - 1] < sigma[p - 1]:
                    edges.add(((p, j), (i, j), "vertical"))
                    if j >= 2 and i < p:
                        edges.add(((p, j), (i, j - 1), "diagonal"))
    return PermGraph(n, k, frozenset(edges))


def _peel(g: PermGraph) -> list[Node]:
    """The nodes in label order: each step takes, among the nodes whose
    out-neighbors are all taken, the smallest by (column, row).  On a cycle
    the order stops short of the n*k nodes."""
    nodes = g.nodes
    waiting = {v: 0 for v in nodes}  # out-neighbors not yet taken
    into: dict[Node, list[Node]] = {v: [] for v in nodes}
    for src, dst, _ in g.edges:
        waiting[src] += 1
        into[dst].append(src)
    ready = [(j, i) for (i, j), count in waiting.items() if count == 0]
    heapq.heapify(ready)
    order: list[Node] = []
    while ready:
        j, i = heapq.heappop(ready)
        order.append((i, j))
        for v in into[(i, j)]:
            waiting[v] -= 1
            if waiting[v] == 0:
                heapq.heappush(ready, (v[1], v[0]))
    return order


def is_acyclic(g: PermGraph) -> bool:
    """True iff every node can be peeled off, sinks first."""
    return len(_peel(g)) == g.n * g.k


def topological_spct(g: PermGraph) -> Tableau:
    """Label the nodes 1..kn, every edge pointing larger -> smaller, and read
    rows off the grid.

    Canonical rule: repeatedly give the smallest unused label to the node all
    of whose out-neighbors are labeled, breaking ties by smallest (column,
    row).  The result is a standard filling of shape (k, ..., k); when the
    graph came from a permutation sequence, column j standardizes to the j-th
    permutation.
    """
    order = _peel(g)
    if len(order) < g.n * g.k:
        raise ValueError("graph has a cycle; no labeling exists")
    rows = [[0] * g.k for _ in range(g.n)]
    for label, (i, j) in enumerate(order, start=1):
        rows[i - 1][j - 1] = label
    return Tableau.from_rows(rows)


def _label_sequence(seq: tuple[Perm, ...]) -> Tableau:
    """``topological_spct(build_graph(seq))`` for an allowable ``seq``, read
    off the permutations without building the graph.

    The vertical edges make column j take its labels in increasing s_j
    order, so its one candidate is the row p with s_j(p) = t_j + 1, where
    t_j counts its labels.  Column j is ready when row p is labeled in
    column j+1, s_{j+1}(p) <= t_{j+1} (the last column always is), and the
    smallest ready column takes the next label.

    That is the graph's rule: the diagonal edges never hold back the
    smallest ready column j.  Suppose a diagonal target (i, j-1) of p, with
    i < p and s_j(i) < s_j(p), is unlabeled.  (i, j) is labeled, as
    s_j(i) < s_j(p).  Column j-1's candidate c has s_{j-1}(c) <= s_{j-1}(i),
    and column j-1 is not ready, so (c, j) is unlabeled: s_j(c) >= s_j(p).
    If c = p, (i, p) is an inversion of s_{j-1} but not of s_j, a 2112; if
    c > i, so is (i, c).  So c < i < p, s_j(c) > s_j(p), and the weak order
    gives s_{j-1}(i) < s_{j-1}(p): (c, i, p) increases in s_{j-1} and reads
    312 in s_j, the other forbidden pattern.  And a column whose candidate
    has every out-neighbor labeled is ready, so no smaller one is skipped.

    A label in column j can make only columns j-1 and j ready, and every
    other ready column is larger, so the ready columns sit on a stack, the
    smallest on top; the last column keeps it from emptying early.  The
    sorts take O(k n log n) time, the labels O(k n), the tables O(k n)
    memory.  On a sequence that is not allowable the labels can break a
    diagonal edge; ``realize_sct`` refuses such pairs first.
    """
    n, k = len(seq[0]), len(seq)
    if not n:
        raise ValueError("tableau must have at least one row")
    # per column j = 1..k: its rows in label order, and s_{j+1}, the count
    # column j+1 must reach before a row's label; the last column needs 0
    rows_of = [[]] + [sorted(range(n), key=sigma.__getitem__) for sigma in seq]
    after = ((),) + seq[1:] + ((0,) * n,)
    done = [n] + [0] * k + [n]  # labels per column; both ends count as full
    stack = [k]  # at the start only the last column is ready
    grid = [[0] * k for _ in range(n)]
    for label in range(1, n * k + 1):
        j = stack.pop()
        grid[rows_of[j][done[j]]][j - 1] = label
        done[j] += 1
        for c in (j, j - 1):
            t = done[c]
            if t < n and after[c][rows_of[c][t]] <= done[c + 1]:
                stack.append(c)
    return Tableau._trusted(tuple(map(tuple, grid)))


def realize_sct(a: Perm, b: Perm) -> Tableau:
    """A standard tableau of rectangle shape whose last two columns
    standardize to a and b: the canonical labeling (``topological_spct``)
    of the grid graph of the maximal left-weak-order chain from the
    identity to a, extended by the single extra column b.

    The labeling is read straight off the k = l(a) + 2 permutations, with
    no graph built, by one readiness count per column (``_label_sequence``).
    That rule holds only on an allowable sequence, so the pair is checked
    first.  It takes O(k n log n) time for the per-column sorts plus O(k n)
    for the labels, and O(k n) memory; the graph would hold O(k n^2)
    edges.  ``build_graph`` and ``topological_spct`` stay as the graph
    reference.

    >>> realize_sct((1, 2), (1, 2)).rows
    ((2, 1), (4, 3))
    """
    a = check_permutation(a)
    b = check_permutation(b)
    if not is_allowable_pair(a, b):
        raise ValueError(f"pair is not allowable: {a}, {b}")
    # each step of the chain is a weak-order cover, which is allowable
    return _label_sequence(maximal_chain_to(a) + (b,))
