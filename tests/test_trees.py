import heapq
import random
import re
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from tabkit.dyck import LabeledDyckPath, catalan, enumerate_ldyck, random_ldyck
from tabkit.tableaux import (
    descent_quadruple,
    descent_quadruple_counts,
    enumerate_spct,
    pct_to_rt,
    rt_to_pct,
    st_column,
    validate_pct,
)
from tabkit.dyck import ldyck_to_spct, spct_to_ldyck, up_step_labels
from tabkit import trees
from tabkit.trees import (
    Node,
    check_ltree,
    edge_stats,
    edge_stats_counts,
    enumerate_ltrees,
    ldyck_to_ltree,
    ltree_to_ldyck,
    push_pop_trace,
    random_ltree,
    tree_from_json,
    tree_labels,
    tree_to_json,
    verify_counts,
)
from references import LeftPath, mlpd, recorded_checks
from test_dyck import cycle_lemma_draws, runs

# the ten-node companion of the semi-length 10 golden path
GOLDEN_PATH = LabeledDyckPath(
    ("U", "U", "D7", "D3", "U", "U", "U", "U", "D4", "U",
     "D1", "D10", "U", "D6", "D8", "U", "U", "D9", "D2", "D5")
)
GOLDEN_TREE = Node(
    5,
    Node(2, Node(9)),
    Node(8, Node(6, None, Node(10, Node(1, None, Node(4)), Node(3, Node(7))))),
)
GOLDEN_TRACE = (
    ("push", 5), ("push", 2), ("push", 9), ("pop", 2), ("pop", 5),
    ("push", 8), ("push", 6), ("pop", 6), ("push", 10), ("push", 1),
    ("pop", 1), ("push", 4), ("pop", 4), ("pop", 8), ("pop", 9),
    ("pop", 10), ("push", 3), ("push", 7), ("pop", 3), ("pop", 7),
)

# a nine-node tree with one left ascent, three left descents, three right
# ascents, and one right descent
WITNESS_1331 = Node(
    5,
    None,
    Node(7, Node(3, Node(2, Node(1, None, Node(8)), Node(6, Node(9, None, Node(4)))))),
)


@st.composite
def ltree_strategy(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    trees = list(enumerate_ltrees(n))
    return trees[draw(st.integers(0, len(trees) - 1))]


def test_node_structure():
    t = Node(2, Node(1), Node(3))
    assert t.label == 2
    assert t.left.label == 1
    assert t.right.label == 3
    assert t == Node(2, Node(1), Node(3))
    assert t != Node(2, None, Node(3))


def test_tree_labels_and_count():
    assert tree_labels(GOLDEN_TREE) == (5, 2, 9, 8, 6, 10, 1, 4, 3, 7)  # preorder
    assert len(tree_labels(GOLDEN_TREE)) == 10
    assert len(tree_labels(Node(1))) == 1


def test_check_ltree():
    assert check_ltree(GOLDEN_TREE) == 10
    assert check_ltree(WITNESS_1331) == 9
    with pytest.raises(ValueError):
        check_ltree(Node(2))  # labels must be exactly 1..n
    with pytest.raises(ValueError):
        check_ltree(Node(1, Node(1)))  # repeated label


@pytest.mark.parametrize("tree", [Node(True), Node(2, Node(True)), Node(2.0, Node(1))])
def test_check_ltree_refuses_labels_that_are_not_ints(tree):
    with pytest.raises(ValueError, match="^label must be an integer: "):
        check_ltree(tree)


@pytest.mark.parametrize("tree, message", [
    (Node(2), "labels must be exactly 1..1: 2 is repeated or out of range"),
    (Node(1, Node(3)), "labels must be exactly 1..2: 3 is repeated or out of range"),
    (Node(2, Node(0)), "labels must be exactly 1..2: 0 is repeated or out of range"),
    (Node(2, Node(1), Node(1)), "labels must be exactly 1..3: 1 is repeated or out of range"),
    (Node(True), "label must be an integer: True"),
    (Node(2, Node(True)), "label must be an integer: True"),
    (Node(2.0, Node(1)), "label must be an integer: 2.0"),
    (Node("a"), "label must be an integer: 'a'"),
    (Node(2, Node("a")), "label must be an integer: 'a'"),
], ids=["too-large", "too-large-below", "zero", "repeated", "bool", "bool-below", "float",
        "str", "str-below"])
def test_replay_refuses_labels_other_than_1_to_n(tree, message):
    # the replay checks the labels as it goes, with check_ltree's message
    for replay in (push_pop_trace, ltree_to_ldyck):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replay(tree)


def test_mlpd_golden():
    assert mlpd(GOLDEN_TREE) == (
        LeftPath(labels=(5, 2, 9), parent=None),
        LeftPath(labels=(8, 6), parent=5),
        LeftPath(labels=(10, 1), parent=6),
        LeftPath(labels=(3, 7), parent=10),
        LeftPath(labels=(4,), parent=1),
    )


def test_mlpd_single_chain():
    assert mlpd(Node(2, Node(1, Node(3)))) == (
        LeftPath(labels=(2, 1, 3), parent=None),
    )


@given(t=ltree_strategy())
def test_mlpd_covers_all_labels_once(t):
    paths = mlpd(t)
    labels = [x for p in paths for x in p.labels]
    assert sorted(labels) == sorted(tree_labels(t))
    assert paths[0].parent is None
    assert paths[0].labels[0] == t.label
    # every later path hangs off a node listed earlier
    seen = set(paths[0].labels)
    for p in paths[1:]:
        assert p.parent in seen
        seen.update(p.labels)


def test_edge_stats_known():
    assert edge_stats(Node(2, Node(1), Node(3))) == (0, 1, 1, 0)
    assert edge_stats(Node(1)) == (0, 0, 0, 0)
    assert edge_stats(WITNESS_1331) == (1, 3, 3, 1)
    assert edge_stats(GOLDEN_TREE) == (2, 3, 3, 1)


@given(t=ltree_strategy())
def test_edge_stats_count_all_edges(t):
    stats = edge_stats(t)
    assert all(x >= 0 for x in stats)
    assert sum(stats) == len(tree_labels(t)) - 1


def test_push_pop_trace_golden():
    assert push_pop_trace(GOLDEN_TREE) == GOLDEN_TRACE
    assert GOLDEN_TRACE[0] == ("push", 5)
    assert GOLDEN_TRACE[-1] == ("pop", 7)
    assert len(GOLDEN_TRACE) == 20


@given(t=ltree_strategy(max_n=5))
def test_push_pop_trace_is_balanced(t):
    trace = push_pop_trace(t)
    n = len(tree_labels(t))
    assert len(trace) == 2 * n
    pushed = [x for op, x in trace if op == "push"]
    popped = [x for op, x in trace if op == "pop"]
    assert sorted(pushed) == sorted(popped) == sorted(tree_labels(t))
    height = 0
    for op, _ in trace:
        height += 1 if op == "push" else -1
        assert height >= 0
    assert height == 0


def test_golden_tree_path_pair():
    assert ltree_to_ldyck(GOLDEN_TREE) == GOLDEN_PATH
    assert ldyck_to_ltree(GOLDEN_PATH) == GOLDEN_TREE


def test_round_trip_exhaustive_small():
    for n in range(1, 5):
        for d in enumerate_ldyck(n):
            assert ltree_to_ldyck(ldyck_to_ltree(d)) == d
        for t in enumerate_ltrees(n):
            assert ldyck_to_ltree(ltree_to_ldyck(t)) == t


@given(t=ltree_strategy())
def test_tree_path_round_trip(t):
    d = ltree_to_ldyck(t)
    assert d.canonical
    assert d.semi_length == len(tree_labels(t))
    assert ldyck_to_ltree(d) == t


def test_ldyck_to_ltree_deep_left_path():
    # U^1500 D1 ... D1500 is one down block, so a left path deeper than the
    # default recursion limit of 1000
    d = LabeledDyckPath(("U",) * 1500 + tuple(f"D{i}" for i in range(1, 1501)))
    assert edge_stats(ldyck_to_ltree(d)) == (0, 1499, 0, 0)


@pytest.mark.parametrize("steps, stats, left_paths", [
    (("U",) * 1500 + tuple(f"D{i}" for i in range(1, 1501)), (0, 1499, 0, 0), 1),
    (tuple(step for i in range(1, 1501) for step in ("U", f"D{i}")), (0, 0, 0, 1499),
     1500),
], ids=["left-path", "right-path"])
def test_deep_trees_round_trip_without_recursion(steps, stats, left_paths):
    # a left path and a right path 1,500 deep, past the default recursion
    # limit, through every tree function that walks them
    d = LabeledDyckPath(steps)
    tree = ldyck_to_ltree(d)
    assert tree.label == 1500
    assert edge_stats(tree) == stats
    assert check_ltree(tree) == 1500
    assert len(push_pop_trace(tree)) == 3000
    path = ltree_to_ldyck(tree)
    assert path == d
    back = ldyck_to_ltree(path)
    assert back == tree and hash(back) == hash(tree)
    paths = mlpd(tree)
    assert len(paths) == left_paths
    assert sorted(label for p in paths for label in p.labels) == list(range(1, 1501))


def test_a_tree_of_a_hundred_thousand_nodes_compares_as_a_tree():
    # its height is 1,107, so a recursive equality would fail
    tree = random_ltree(10**5, random.Random(1))
    back = ldyck_to_ltree(ltree_to_ldyck(tree))
    assert back is not tree
    assert back == tree and hash(back) == hash(tree)


def test_repr_is_the_dataclass_repr_without_recursion():
    assert repr(GOLDEN_TREE) == (
        "Node(label=5, left=Node(label=2, left=Node(label=9, left=None, right=None), "
        "right=None), right=Node(label=8, left=Node(label=6, left=None, "
        "right=Node(label=10, left=Node(label=1, left=None, right=Node(label=4, "
        "left=None, right=None)), right=Node(label=3, left=Node(label=7, left=None, "
        "right=None), right=None))), right=None))"
    )
    # the 1,500-deep left comb and a tree of height 1,107
    comb = ldyck_to_ltree(LabeledDyckPath(("U",) * 1500 + tuple(f"D{i}" for i in range(1, 1501))))
    text = repr(comb)
    assert text.startswith("Node(label=1500, left=Node(label=1499, left=")
    assert text.endswith("Node(label=1, left=None, right=None)" + ", right=None)" * 1499)
    text = repr(random_ltree(10**5, random.Random(1)))
    assert text.count("Node(label=") == 10**5 and text.count("None") == 10**5 + 1


def _mirror(t):
    return t and Node(t.label, _mirror(t.right), _mirror(t.left))


def _relabeled(t, f):
    return t and Node(f(t.label), _relabeled(t.left, f), _relabeled(t.right, f))


def test_equality_tells_shapes_and_labels_apart():
    assert _mirror(GOLDEN_TREE) != GOLDEN_TREE
    assert _mirror(_mirror(GOLDEN_TREE)) == GOLDEN_TREE
    assert _relabeled(GOLDEN_TREE, lambda x: 11 - x) != GOLDEN_TREE
    assert Node(1, Node(2)) != Node(1, None, Node(2))
    assert Node(1) != 1 and Node(1) != (1, None, None)


def blocks_to_ltree(d):
    """The block characterisation of the tree of a labeled path: each down
    block of ``runs`` is a left path whose labels, root to leaf, are the
    block's labels right to left; the rightmost block holds the root, and
    every other block hangs as the right subtree of the node named by the
    up-step label right after it."""
    blocks = runs(d)
    parents = []  # the up-step labels right after a block, left to right
    ups = iter(up_step_labels(d))
    after_down = False
    for s in d.steps:
        if s == "U":
            label = next(ups)
            if after_down:
                parents.append(label)
        after_down = s != "U"
    parents.reverse()
    # a block hangs from a node of a block to its right, so building the
    # blocks left to right finds every right subtree already built
    hanging = {}  # node label -> its right subtree

    def left_path(block):
        node = None
        for label in block:
            node = Node(label, node, hanging.pop(label, None))
        return node

    for block, j in reversed(list(zip(blocks[1:], parents))):
        hanging[j] = left_path(block)
    root = left_path(blocks[0])
    assert not hanging
    return root




def flat_of(t):
    """The children of each label of t, 0 for none, the root recorded as the
    left child of 0: the flat form, read from the nodes."""
    n = len(tree_labels(t))
    left, right = [0] * (n + 1), [0] * (n + 1)
    left[0] = t.label
    stack = [t]
    while stack:
        v = stack.pop()
        for side, child in ((left, v.left), (right, v.right)):
            if child:
                side[v.label] = child.label
                stack.append(child)
    return left, right


def node_replay(t):
    """The push/pop replay walked on the nodes, a push of x as x and a pop
    as -x: push a left path root to leaf, pop the smallest pushed label and
    push its right child's left path."""
    ops, heap, pushed = [], [], {}
    node = t
    while True:
        while node:
            pushed[node.label] = node
            ops.append(node.label)
            heapq.heappush(heap, node.label)
            node = node.left
        if not heap:
            return ops
        label = heapq.heappop(heap)
        ops.append(-label)
        node = pushed[label].right


def block_cases():
    # every labeled path of semi-length <= 6, then seeded ones at 64 and 10^4
    for n in range(1, 7):
        yield from enumerate_ldyck(n)
    rng = random.Random(17)
    for _ in range(200):
        yield random_ldyck(64, rng)
    for _ in range(3):
        yield random_ldyck(10**4, rng)


def test_replay_matches_the_block_characterisation():
    for d in block_cases():
        tree = blocks_to_ltree(d)
        flat = trees._flat(d)
        assert flat == flat_of(tree), d.steps
        assert ldyck_to_ltree(d) == tree, d.steps
        # the replay on the arrays is the one walked on the nodes
        ops = node_replay(tree)
        assert trees._replay(*flat) == ops, d.steps
        assert push_pop_trace(tree) == tuple(
            ("push", x) if x > 0 else ("pop", -x) for x in ops)


@pytest.mark.parametrize("steps, stats", [
    (("U",) * 10**5 + tuple(f"D{i}" for i in range(1, 10**5 + 1)), (0, 10**5 - 1, 0, 0)),
    (tuple(step for i in range(1, 10**5 + 1) for step in ("U", f"D{i}")),
     (0, 0, 0, 10**5 - 1)),
], ids=["left-comb", "right-comb"])
def test_combs_of_a_hundred_thousand_nodes_need_no_recursion(steps, stats):
    d = LabeledDyckPath(steps)
    tree = ldyck_to_ltree(d)
    assert tree.label == 10**5
    assert edge_stats(tree) == stats
    assert ltree_to_ldyck(tree) == d


def test_ldyck_to_ltree_refuses_the_empty_path():
    with pytest.raises(ValueError, match="need at least one node: 0"):
        ldyck_to_ltree(LabeledDyckPath(()))


def test_ldyck_to_ltree_requires_canonical():
    with pytest.raises(ValueError):
        ldyck_to_ltree(LabeledDyckPath(("U", "D3", "U", "D1")))


@given(n=st.integers(1, 4))
def test_enumerate_ltrees_count(n):
    trees = list(enumerate_ltrees(n))
    assert len(trees) == factorial(n) * catalan(n)
    assert len(set(trees)) == len(trees)
    for t in trees:
        assert check_ltree(t) == n


@given(seed=st.integers(0, 1000), n=st.integers(1, 8))
def test_random_ltree_valid_and_reproducible(seed, n):
    t1 = random_ltree(n, random.Random(seed))
    t2 = random_ltree(n, random.Random(seed))
    assert t1 == t2
    assert check_ltree(t1) == n


@pytest.mark.parametrize("n", range(1, 5))
def test_random_ltree_is_exactly_uniform(n):
    hits = Counter()
    for rng in cycle_lemma_draws(n):
        hits[random_ltree(n, rng)] += 1
        assert rng.choices == []
    assert hits == {t: 2 * n + 1 for t in enumerate_ltrees(n)}


@pytest.mark.parametrize("n", [0, -2])
def test_random_ltree_refuses_a_bad_size(n):
    with pytest.raises(ValueError, match=f"need at least one node: {n}"):
        random_ltree(n, random.Random(0))


@given(t=ltree_strategy())
def test_json_round_trip(t):
    assert tree_from_json(tree_to_json(t)) == t


def test_json_shape():
    data = tree_to_json(Node(2, Node(1), Node(3)))
    assert data == {"label": 2, "left": {"label": 1}, "right": {"label": 3}}
    assert list(data) == ["label", "left", "right"]
    with pytest.raises(ValueError):
        tree_from_json({"left": {"label": 1}})


@pytest.mark.parametrize("data, message", [
    ({"label": 1.0, "left": {"label": 2.0}}, "label must be an integer: 1.0"),
    ({"label": 1, "left": {"label": "a", "left": []}, "right": {"label": True}},
     "label must be an integer: 'a'"),
    ({"label": 1, "left": {"label": 2, "right": []}, "right": {"label": True}},
     'expected an object with a "label" key'),
    ({"label": 1, "left": {"label": 2}, "right": {"label": True}},
     "label must be an integer: True"),
])
def test_json_faults_are_reported_in_preorder(data, message):
    with pytest.raises(ValueError) as err:
        tree_from_json(data)
    assert str(err.value) == message


def test_json_round_trip_of_a_deep_tree():
    # a uniform tree on 10^5 nodes nests far deeper than the recursion limit
    t = random_ltree(10**5, random.Random(1))
    assert tree_from_json(tree_to_json(t)) == t


def test_statistic_transport_small():
    # the composed tableau-to-tree bijection carries the four descent counts
    # onto the four edge counts, object by object
    for n in range(1, 5):
        for t in enumerate_spct((2,) * n):
            tree = ldyck_to_ltree(spct_to_ldyck(t))
            assert edge_stats(tree) == descent_quadruple(t)


def test_statistic_transport_distributions_match():
    from collections import Counter

    for n in range(1, 5):
        tableaux = Counter(descent_quadruple(t) for t in enumerate_spct((2,) * n))
        trees = Counter(edge_stats(t) for t in enumerate_ltrees(n))
        assert tableaux == trees


def test_edge_stats_counts_match_the_trees():
    for n in range(1, 7):
        want = Counter(edge_stats(t) for t in enumerate_ltrees(n))
        assert edge_stats_counts(n) == want, n
    with pytest.raises(ValueError, match="need at least one node: 0"):
        edge_stats_counts(0)


def test_edge_stats_counts_closed_forms():
    # each coordinate is zero on (n+1)^(n-1) of the n! Cat(n) trees, and the
    # two counted sides agree past enumeration
    for n in range(1, 9):
        counts = edge_stats_counts(n)
        assert sum(counts.values()) == factorial(n) * catalan(n), n
        for k in range(4):
            zero = sum(ways for q, ways in counts.items() if q[k] == 0)
            assert zero == (n + 1) ** (n - 1), (n, k)
        assert counts == descent_quadruple_counts(n), n


def test_the_whole_chain_at_semi_length_ten_thousand():
    # one seeded path through every bijection, each step checked; a step
    # quadratic in the rows would take minutes here
    d = random_ldyck(10**4, random.Random(1))
    t = ldyck_to_spct(d)
    assert validate_pct(t).valid
    assert rt_to_pct(pct_to_rt(t), st_column(t, 1)) == t
    assert spct_to_ldyck(t) == d
    tree = ldyck_to_ltree(d)
    assert ltree_to_ldyck(tree) == d
    assert descent_quadruple(t) == edge_stats(tree)


def built_paths():
    # the paths the library builds from their labels, with no token parse
    for n in range(6):
        yield from enumerate_ldyck(n)
    rng = random.Random(3)
    for n in range(40):
        yield random_ldyck(n, rng)
    for n in range(1, 5):
        yield from map(ltree_to_ldyck, enumerate_ltrees(n))
        yield from map(spct_to_ldyck, enumerate_spct((2,) * n))


def test_built_paths_equal_their_parsed_twins():
    for d in built_paths():
        parsed = LabeledDyckPath(d.steps)
        assert d == parsed and hash(d) == hash(parsed), d.steps
        assert type(d.down_labels) is tuple and d.down_labels == parsed.down_labels
        # the labels stored by the first call are those of a fresh path
        assert up_step_labels(d) is up_step_labels(d) == up_step_labels(parsed)


def test_verify_counts_rows_are_the_recorded_ones():
    rows = [verify_counts(n) for n in range(1, 5)]
    assert all(witness is None for _, witness in rows)
    assert [row for row, _ in rows] == recorded_checks("verify counts --max-n 4")


def test_verify_counts_returns_a_wrong_count_as_its_witness(monkeypatch):
    monkeypatch.setattr("tabkit.trees.labeled_catalan", lambda n: 0)
    row, witness = verify_counts(2)
    assert row == {"n": 2, "spct": 4, "ldyck": 4, "ltree": 4, "expected_objects": 0,
                   "classes": 3, "expected_classes": 3, "pass": False}
    assert witness == f"n=2: {row}"
