"""Labeled plane binary trees and their labeled-Dyck-path conversions.

Trees are immutable nodes with a label and optional left/right children.
Equality is structural: it compares the preorders of (label, has a left
child, has a right child), which fix a tree, without recursion.

The module works in a private flat form of a tree on the labels 1..n: two
lists ``left`` and ``right`` of length n + 1, indexed by label, holding the
label of each child and 0 for none, with the root recorded as ``left[0]``.
``_flat`` builds it from a path, and ``ldyck_to_ltree`` builds nodes from it.
A node input is read into it once, by ``_read``, which also checks the
labels.  The round trips of ``tk verify bijections`` run on it alone and
build no node.

Both conversions are one push/pop replay: push the root's left path root to
leaf, pop the smallest pushed-but-unpopped label, and after popping a node
with a right child, push that child's left path.  A push right after the
push of p is p's left child, and one right after the pop of m is m's right
child.  Read in reverse, a push is a labeled down-step and a pop an up-step
with the label ``dyck.up_step_labels`` gives it.  So each maximal down-step
block is a left path, labels right to left; the rightmost block holds the
root, and every other one hangs as the right subtree of the node named by
the up-step right after it.

Edges are classified by comparing labels: a right child larger than its
parent is a right ascent, smaller a right descent, and likewise on the left.
The ``verify_*`` functions run the round trips of ``tk verify bijections``
and the counts of ``tk verify counts``.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import permutations
from math import comb, factorial

from .core import _places, _unpacked
from .dyck import (
    LabeledDyckPath,
    _require_canonical,
    enumerate_dyck,
    enumerate_ldyck,
    labeled_catalan,
    ldyck_to_spct,
    random_ldyck,
    spct_to_ldyck,
    up_step_labels,
)
from .tableaux import two_column_census

__all__ = [
    "Node",
    "tree_labels",
    "check_ltree",
    "edge_stats",
    "edge_stats_counts",
    "ldyck_to_ltree",
    "ltree_to_ldyck",
    "push_pop_trace",
    "enumerate_ltrees",
    "random_ltree",
    "tree_to_json",
    "tree_from_json",
    "verify_path_round_trips",
    "verify_sampled_round_trips",
    "verify_counts",
]


@dataclass(frozen=True, eq=False)
class Node:
    label: int
    left: "Node | None" = None
    right: "Node | None" = None

    def _key(self) -> tuple[tuple[int, bool, bool], ...]:
        # (label, has a left child, has a right child) in preorder fixes a tree
        return tuple((v.label, v.left is not None, v.right is not None)
                     for v in _preorder(self))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        # the text of the generated dataclass repr, built by an explicit stack
        out: list[str] = []
        stack: list[Node | str | None] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, Node):
                stack += [")", item.right, ", right=", item.left, ", left="]
                item = f"{type(item).__qualname__}(label={item.label!r}"
            out.append(item if isinstance(item, str) else repr(item))
        return "".join(out)


def _preorder(t: Node) -> Iterator[Node]:
    """Every node of t in preorder (node, left, right), by an explicit stack."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if node.right:
            stack.append(node.right)
        if node.left:
            stack.append(node.left)


def tree_labels(t: Node) -> tuple[int, ...]:
    """All labels in preorder (node, left, right)."""
    return tuple(node.label for node in _preorder(t))


def check_ltree(t: Node) -> int:
    """Validate that labels are exactly the ints 1..n; return n."""
    labels = tree_labels(t)
    n = len(labels)
    seen: set[int] = set()
    for label in labels:
        if type(label) is not int:  # bool is an int subclass and must not pass
            raise ValueError(f"label must be an integer: {label!r}")
        if label in seen or not 1 <= label <= n:
            raise ValueError(
                f"labels must be exactly 1..{n}: {label} is repeated or out of range"
            )
        seen.add(label)
    return n


def edge_stats(t: Node) -> tuple[int, int, int, int]:
    """(left ascents, left descents, right ascents, right descents).

    >>> edge_stats(Node(2, Node(1), Node(3)))
    (0, 1, 1, 0)
    """
    lasc = ldes = rasc = rdes = 0
    for node in _preorder(t):
        if node.left:
            if node.left.label > node.label:
                lasc += 1
            else:
                ldes += 1
        if node.right:
            if node.right.label > node.label:
                rasc += 1
            else:
                rdes += 1
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


def _flat(d: LabeledDyckPath) -> tuple[list[int], list[int]]:
    # The flat tree of a canonical path, read right to left as the tree's
    # push/pop replay: a down-step pushes its label, an up-step pops its own.
    _require_canonical(d)
    n = d.semi_length
    if n == 0:
        raise ValueError("need at least one node: 0")
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    ups = reversed(up_step_labels(d))
    downs = reversed(d.down_labels)
    side, last = left, 0  # a push hangs on this side of the last label
    for s in reversed(d.steps):
        if s == "U":
            side, last = right, next(ups)
        else:
            side[last] = label = next(downs)
            side, last = left, label
    return left, right


def ldyck_to_ltree(d: LabeledDyckPath) -> Node:
    """Read a canonical path right to left as the tree's push/pop replay: a
    down-step pushes its label, an up-step pops its own.

    >>> ldyck_to_ltree(LabeledDyckPath(("U", "D3", "U", "U", "D1", "D2")))
    Node(label=2, left=Node(label=1, left=None, right=None), right=Node(label=3, left=None, right=None))
    """
    left, right = _flat(d)
    # the labels left to right are pushed last first, so every child is
    # built before its parent
    nodes: list[Node | None] = [None] * len(left)
    for label in d.down_labels:
        nodes[label] = Node(label, nodes[left[label]], nodes[right[label]])
    return nodes[left[0]]


def _read(t: Node) -> tuple[list[int], list[int]]:
    # The flat tree of t, its nodes gathered by one explicit-stack pass.  The
    # labels must be exactly the ints 1..n; on a bad tree ``check_ltree``
    # names the first in preorder.
    nodes: list[Node] = []
    stack = [t]
    while stack:
        node = stack.pop()
        while node:
            nodes.append(node)
            if node.right:
                stack.append(node.right)
            node = node.left
    n = len(nodes)
    labels = [node.label for node in nodes]
    # a bool or a float equal to a label passes every test but the first
    if (set(map(type, labels)) != {int} or len(set(labels)) != n
            or min(labels) < 1 or max(labels) > n):
        check_ltree(t)
    left = [0] * (n + 1)
    right = [0] * (n + 1)
    left[0] = t.label
    for node in nodes:
        if node.left:
            left[node.label] = node.left.label
        if node.right:
            right[node.label] = node.right.label
    return left, right


def _replay(left: list[int], right: list[int]) -> list[int]:
    # The push/pop replay of a flat tree, a push of label x recorded as x and
    # a pop as -x.
    ops: list[int] = []
    heap: list[int] = []  # the pushed labels not yet popped
    label = left[0]  # the next label of the left path being pushed
    while True:
        while label:
            ops.append(label)
            heapq.heappush(heap, label)
            label = left[label]
        if not heap:
            return ops
        label = heapq.heappop(heap)
        ops.append(-label)
        label = right[label]


def _path(ops: list[int]) -> LabeledDyckPath:
    # the replay read backwards: a push becomes a labeled down-step, a pop an
    # up-step
    ops.reverse()
    steps = tuple(f"D{x}" if x > 0 else "U" for x in ops)
    downs = tuple(x for x in ops if x > 0)
    return LabeledDyckPath._trusted(steps, downs)


def push_pop_trace(t: Node) -> tuple[tuple[str, int], ...]:
    """The push/pop operation sequence replaying the tree.

    Push the root's left path root to leaf; repeatedly pop the smallest
    pushed-but-unpopped label, and after popping a node with a right child,
    push that child's left path before popping again.  The labels are
    checked as the tree is read (exactly 1..n, else ``ValueError``).
    """
    return tuple(("push", x) if x > 0 else ("pop", -x) for x in _replay(*_read(t)))


def ltree_to_ldyck(t: Node) -> LabeledDyckPath:
    """Run the push/pop replay and read it backwards: a push becomes a
    labeled down-step, a pop an up-step.

    The replay is the one of ``push_pop_trace``, on the tree read into its
    flat form, which also checks the labels; its integers become the steps
    directly, with no trace built.

    >>> ltree_to_ldyck(Node(2, Node(1), Node(3))).steps
    ('U', 'D3', 'U', 'U', 'D1', 'D2')
    """
    return _path(_replay(*_read(t)))


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
    """The nested JSON object of a tree, keys in the order label, left,
    right; built from an explicit stack, so a deep tree does not recurse."""
    root: dict = {}
    stack = [(t, root)]
    while stack:
        v, out = stack.pop()
        out["label"] = v.label
        if v.left is not None:
            out["left"] = child = {}
            stack.append((v.left, child))
        if v.right is not None:
            out["right"] = child = {}
            stack.append((v.right, child))
    return root


def tree_from_json(data: dict) -> Node:
    """The tree of a nested JSON object, without recursion.  The objects are
    checked in preorder, so the first fault reported is the one a recursive
    reader meets first."""
    order = []  # (label, has a left child, has a right child) in preorder
    stack = [data]
    while stack:
        obj = stack.pop()
        if not isinstance(obj, dict) or "label" not in obj:
            raise ValueError('expected an object with a "label" key')
        label = obj["label"]
        if type(label) is not int:  # bool is an int subclass and must not pass
            raise ValueError(f"label must be an integer: {label!r}")
        left, right = "left" in obj, "right" in obj
        if right:
            stack.append(obj["right"])
        if left:
            stack.append(obj["left"])
        order.append((label, left, right))
    # read backwards, preorder gives each node after its right subtree and
    # then its left one, so its left child's root is on top of the stack
    built: list[Node] = []
    for label, left, right in reversed(order):
        left_child = built.pop() if left else None
        built.append(Node(label, left_child, built.pop() if right else None))
    return built.pop()


def verify_path_round_trips(m: int) -> tuple[dict, str | None]:
    """The ``ldyck-spct-ltree`` row of ``tk verify bijections``, and the first
    failure's message or None: every labeled path of semi-length m taken to
    its tableau and its tree and back."""
    return _round_trips("ldyck-spct-ltree", m, enumerate_ldyck(m), _path_moved)


def verify_sampled_round_trips(m: int, samples: int, rng: random.Random
                               ) -> tuple[dict, str | None]:
    """As ``verify_path_round_trips`` on ``samples`` labeled paths of
    semi-length m drawn from ``rng``, each followed by a labeled tree drawn
    from ``rng`` and taken to its path and back; the ``sampled`` row."""
    # each sampled path is checked before its tree is drawn from ``rng``
    sampled = (random_ldyck(m, rng) for _ in range(samples))
    # the tree is drawn as ``random_ltree`` draws it, in its flat form
    return _round_trips(
        "sampled", m, sampled,
        lambda d: _path_moved(d) or _tree_moved(*_flat(random_ldyck(d.semi_length, rng))),
    )


def verify_counts(n: int) -> tuple[dict, str | None]:
    """The row of ``tk verify counts`` at size n, and the row as the witness
    when it fails: the census's tableaux and classes, the Dyck walk's labeled
    paths and the recurrence's trees, against n! Cat(n) and (n+1)^(n-1)."""
    # each class has one source, so the transfer counts both
    quadruples, class_count = two_column_census(n)
    row = {
        "n": n,
        "spct": sum(quadruples.values()),
        # the labeled paths: every Dyck path under each of n! labelings
        "ldyck": factorial(n) * sum(1 for _ in enumerate_dyck(n)),
        "ltree": sum(edge_stats_counts(n).values()),
        "expected_objects": labeled_catalan(n),
        "classes": class_count,
        "expected_classes": (n + 1) ** (n - 1),
    }
    passed = row["pass"] = (
        row["spct"] == row["ldyck"] == row["ltree"] == row["expected_objects"]
        and class_count == row["expected_classes"]
    )
    return row, None if passed else f"n={n}: {row}"


def _path_moved(d: LabeledDyckPath) -> str | None:
    if spct_to_ldyck(ldyck_to_spct(d)) != d:
        return f"path/tableau round trip moved {d.steps}"
    if _path(_replay(*_flat(d))) != d:
        return f"path/tree round trip moved {d.steps}"
    return None


def _tree_moved(left: list[int], right: list[int]) -> str | None:
    if _flat(_path(_replay(left, right))) != (left, right):
        # named by the preorder key of its equality, shorter than its repr
        return (f"tree/path round trip moved the tree with (label, has a left child, "
                f"has a right child) in preorder {_flat_key(left, right)}")
    return None


def _flat_key(left: list[int], right: list[int]) -> tuple[tuple[int, bool, bool], ...]:
    # ``Node._key`` of a flat tree: each left path root to leaf, its right
    # children stacked as it is walked
    key = []
    stack = [left[0]]
    while stack:
        label = stack.pop()
        while label:
            key.append((label, left[label] != 0, right[label] != 0))
            if right[label]:
                stack.append(right[label])
            label = left[label]
    return tuple(key)


def _round_trips(check: str, size: int, cases: Iterable,
                 moved: Callable[[object], str | None]) -> tuple[dict, str | None]:
    """Run ``moved`` on each case up to the first failure message it returns."""
    count = 0
    bad = None
    for case in cases:
        count += 1
        bad = moved(case)
        if bad is not None:
            break
    return {"check": check, "size": size, "cases": count, "pass": bad is None}, bad
