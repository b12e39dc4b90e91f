"""Labeled plane binary trees and their labeled-Dyck-path conversions.

Trees are immutable nodes with a label and optional left/right children;
equality is structural.  Deleting every edge from a node to its right child
splits a tree into maximal left paths; conversely a tree is determined by
those paths plus, for each non-root path, the node whose right child is the
path's top.

The conversion from a labeled Dyck path reads the maximal down-step blocks
right to left; each block becomes a left path whose labels, root to leaf, are
the block's labels right to left.  The first path is the root path, and each
later path hangs as the right subtree of the node named by the up-step label
immediately following the block's last down-step.  The inverse conversion
replays the tree as a push/pop process: push a left path root to leaf, pop
the minimum pushed-but-unpopped label, and after popping a node with a right
child, push that child's left path.  Reading the operations in reverse, a
push is a labeled down-step and a pop a labeled up-step.

Edges are classified by comparing labels: a right child larger than its
parent is a right ascent, smaller a right descent, and likewise on the left.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

from .core import _places, _unpacked
from .dyck import LabeledDyckPath, labeled_dyck_word, random_ldyck, runs

__all__ = [
    "Node",
    "LeftPath",
    "node_count",
    "tree_labels",
    "check_ltree",
    "mlpd",
    "edge_stats",
    "edge_stats_counts",
    "ldyck_to_ltree",
    "ltree_to_ldyck",
    "push_pop_trace",
    "enumerate_ltrees",
    "random_ltree",
    "tree_to_json",
    "tree_from_json",
    "tree_dot",
]


@dataclass(frozen=True)
class Node:
    label: int
    left: "Node | None" = None
    right: "Node | None" = None


def tree_labels(t: Node) -> tuple[int, ...]:
    """All labels in preorder (node, left, right)."""
    out: list[int] = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(node.label)
        if node.right:
            stack.append(node.right)
        if node.left:
            stack.append(node.left)
    return tuple(out)


def node_count(t: Node) -> int:
    return len(tree_labels(t))


def check_ltree(t: Node) -> int:
    """Validate that labels are exactly 1..n; return n."""
    labels = tree_labels(t)
    n = len(labels)
    seen: set[int] = set()
    for label in labels:
        if label in seen or not 1 <= label <= n:
            raise ValueError(
                f"labels must be exactly 1..{n}: {label} is repeated or out of range"
            )
        seen.add(label)
    return n


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


def edge_stats(t: Node) -> tuple[int, int, int, int]:
    """(left ascents, left descents, right ascents, right descents).

    >>> edge_stats(Node(2, Node(1), Node(3)))
    (0, 1, 1, 0)
    """
    lasc = ldes = rasc = rdes = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node.left:
            if node.left.label > node.label:
                lasc += 1
            else:
                ldes += 1
            stack.append(node.left)
        if node.right:
            if node.right.label > node.label:
                rasc += 1
            else:
                rdes += 1
            stack.append(node.right)
    return (lasc, ldes, rasc, rdes)


def edge_stats_counts(n: int) -> Counter[tuple[int, int, int, int]]:
    """How many of the n! Cat(n) labeled trees on n nodes have each
    ``edge_stats``, counted without listing them.

    The recurrence runs over (m, j): the trees of m nodes whose root is the
    j-th smallest of their labels.  Such a tree has a left subtree of a
    nodes and a right one of b = m - 1 - a.  If s of the left labels and t
    of the right ones are below the root (s + t = j - 1), the labels split
    in C(j-1, s) C(m-j, a-s) ways, and the left edge is a descent exactly
    when the left child is among the s smallest of its subtree's labels;
    likewise on the right.
    """
    if n < 1:
        raise ValueError(f"need at least one node: {n}")
    lasc, ldes, rasc, rdes = _places(n)
    # hung[a][s]: the (left, right) distributions, edge to the parent
    # included, of the subtrees of a nodes with s labels below the parent
    hung: list[list[tuple[Counter[int], Counter[int]]]] = [[(Counter({0: 1}),) * 2]]
    for m in range(1, n):
        by_rank = _by_rank(m, hung)
        total = sum(by_rank, Counter())
        # the roots below the parent are those of the s smallest ranks
        row = []
        below: Counter[int] = Counter()
        for s in range(m + 1):
            if s:
                below += by_rank[s - 1]
            above = total - below
            row.append((_hung(below, ldes, above, lasc), _hung(below, rdes, above, rasc)))
        hung.append(row)
    return _unpacked(sum(_by_rank(n, hung), Counter()), n)


def _by_rank(m: int, hung: list[list[tuple[Counter[int], Counter[int]]]]
             ) -> list[Counter[int]]:
    # the distributions of the trees of m nodes, by the rank of the root
    by_rank: list[Counter[int]] = [Counter() for _ in range(m)]
    for a in range(m):
        b = m - 1 - a
        for s in range(a + 1):
            for t in range(b + 1):
                ways = comb(s + t, s) * comb(m - 1 - s - t, a - s)
                _add_product(by_rank[s + t], hung[a][s][0], hung[b][t][1], ways)
    return by_rank


def _add_product(target: Counter[int], p: Counter[int], q: Counter[int],
                 ways: int) -> None:
    # target += ways * p * q, for distributions packed by ``_places``
    for k1, v1 in p.items():
        v1 *= ways
        for k2, v2 in q.items():
            target[k1 + k2] += v1 * v2


def _hung(below: Counter[int], descent: int, above: Counter[int],
          ascent: int) -> Counter[int]:
    # the subtrees with their edge to the parent: a descent on those whose
    # root is below the parent, an ascent on the others
    return (Counter({key + descent: ways for key, ways in below.items()})
            + Counter({key + ascent: ways for key, ways in above.items()}))


def ldyck_to_ltree(d: LabeledDyckPath) -> Node:
    """Assemble the tree from the down-step blocks of a canonical path.

    >>> ldyck_to_ltree(LabeledDyckPath(("U", "D3", "U", "U", "D1", "D2")))
    Node(label=2, left=Node(label=1, left=None, right=None), right=Node(label=3, left=None, right=None))
    """
    if not d.canonical:
        raise ValueError(f"labels must be exactly 1..{d.semi_length}")
    if d.semi_length == 0:
        raise ValueError("need at least one node: 0")
    blocks = runs(d)
    word = labeled_dyck_word(d)
    # the up-step right after each down block names the node the block hangs
    # from; read right to left, these match blocks[1:] (blocks[0] ends the
    # path and holds the root)
    parents = [
        int(word[k][1:])
        for k in range(len(word) - 1, 0, -1)
        if word[k][0] == "U" and word[k - 1][0] == "D"
    ]

    # a block hangs from a node of an earlier block, so building the blocks
    # last first finds every right subtree already built
    hanging: dict[int, Node] = {}  # node label -> its right subtree

    def left_path(block: tuple[int, ...]) -> Node:
        node = None
        for label in block:
            node = Node(label, node, hanging.pop(label, None))
        return node

    for block, j in reversed(list(zip(blocks[1:], parents))):
        hanging[j] = left_path(block)
    root = left_path(blocks[0])
    if hanging:  # impossible on a valid word
        raise AssertionError(f"attachment point {min(hanging)} not in the tree")
    return root


def push_pop_trace(t: Node) -> tuple[tuple[str, int], ...]:
    """The push/pop operation sequence replaying the tree.

    Push the root's left path root to leaf; repeatedly pop the smallest
    pushed-but-unpopped label, and after popping a node with a right child,
    push that child's left path before popping again.
    """
    n = check_ltree(t)
    by_label: dict[int, Node] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        by_label[node.label] = node
        if node.left:
            stack.append(node.left)
        if node.right:
            stack.append(node.right)

    trace: list[tuple[str, int]] = []
    heap: list[int] = []

    def push_chain(top: Node) -> None:
        node: Node | None = top
        while node:
            trace.append(("push", node.label))
            heapq.heappush(heap, node.label)
            node = node.left

    push_chain(t)
    while heap:
        m = heapq.heappop(heap)
        trace.append(("pop", m))
        right = by_label[m].right
        if right:
            push_chain(right)
    if len(trace) != 2 * n:  # impossible: every node pushed and popped once
        raise AssertionError(f"trace has {len(trace)} operations, wanted {2 * n}")
    return tuple(trace)


def ltree_to_ldyck(t: Node) -> LabeledDyckPath:
    """Run the push/pop replay and read it backwards: a push becomes a
    labeled down-step, a pop an up-step.

    >>> ltree_to_ldyck(Node(2, Node(1), Node(3))).steps
    ('U', 'D3', 'U', 'U', 'D1', 'D2')
    """
    trace = push_pop_trace(t)
    steps = tuple(
        f"D{label}" if op == "push" else "U"
        for op, label in reversed(trace)
    )
    return LabeledDyckPath(steps)


def _shapes(n: int) -> Iterator[tuple | None]:
    # a shape is None or a pair (left shape, right shape)
    if n == 0:
        yield None
        return
    for k in range(n):
        for left in _shapes(k):
            for right in _shapes(n - 1 - k):
                yield (left, right)


def _materialize(shape: tuple | None, labels: Iterator[int]) -> Node | None:
    if shape is None:
        return None
    label = next(labels)  # preorder: node, then left, then right
    left = _materialize(shape[0], labels)
    right = _materialize(shape[1], labels)
    return Node(label, left, right)


def enumerate_ltrees(n: int) -> Iterator[Node]:
    """All labeled trees on n nodes: every shape with every labeling."""
    from itertools import permutations

    if n < 1:
        raise ValueError(f"need at least one node: {n}")
    for shape in _shapes(n):
        for labels in permutations(range(1, n + 1)):
            tree = _materialize(shape, iter(labels))
            assert tree is not None
            yield tree


def random_ltree(n: int, rng: random.Random) -> Node:
    """One labeled tree, uniform over the n! Cat(n) labeled trees on n nodes,
    in O(n): the image of a uniform labeled path under the bijection."""
    if n < 1:
        raise ValueError(f"need at least one node: {n}")
    return ldyck_to_ltree(random_ldyck(n, rng))


def tree_to_json(t: Node) -> dict:
    out: dict = {"label": t.label}
    if t.left:
        out["left"] = tree_to_json(t.left)
    if t.right:
        out["right"] = tree_to_json(t.right)
    return out


def tree_from_json(data: dict) -> Node:
    if not isinstance(data, dict) or "label" not in data:
        raise ValueError('expected an object with a "label" key')
    label = data["label"]
    if type(label) is not int:  # bool is an int subclass and must not pass
        raise ValueError(f"label must be an integer: {label!r}")
    left = tree_from_json(data["left"]) if "left" in data else None
    right = tree_from_json(data["right"]) if "right" in data else None
    return Node(label, left, right)


def tree_dot(t: Node) -> str:
    """DOT digraph; edges tagged L/R, descent edges drawn bold."""
    lines = ["digraph tree {"]
    stack = [t]
    while stack:
        node = stack.pop()
        lines.append(f"  n{node.label} [label=\"{node.label}\"];")
        for side, child in (("L", node.left), ("R", node.right)):
            if child:
                bold = ", penwidth=2" if child.label < node.label else ""
                lines.append(
                    f'  n{node.label} -> n{child.label} [label="{side}"{bold}];'
                )
                stack.append(child)
    lines.append("}")
    return "\n".join(lines)
