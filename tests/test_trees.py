import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

from tabkit.dyck import LabeledDyckPath, catalan, enumerate_ldyck
from tabkit.tableaux import descent_quadruple, descent_quadruple_counts, enumerate_spct
from tabkit.dyck import ldyck_to_spct, spct_to_ldyck
from tabkit.trees import (
    LeftPath,
    Node,
    check_ltree,
    edge_stats,
    edge_stats_counts,
    enumerate_ltrees,
    ldyck_to_ltree,
    ltree_to_ldyck,
    mlpd,
    node_count,
    push_pop_trace,
    random_ltree,
    tree_dot,
    tree_from_json,
    tree_labels,
    tree_to_json,
)
from test_dyck import cycle_lemma_draws

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
    assert sorted(tree_labels(GOLDEN_TREE)) == list(range(1, 11))
    assert node_count(GOLDEN_TREE) == 10
    assert node_count(Node(1)) == 1


def test_check_ltree():
    assert check_ltree(GOLDEN_TREE) == 10
    assert check_ltree(WITNESS_1331) == 9
    with pytest.raises(ValueError):
        check_ltree(Node(2))  # labels must be exactly 1..n
    with pytest.raises(ValueError):
        check_ltree(Node(1, Node(1)))  # repeated label


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
    assert sum(stats) == node_count(t) - 1


def test_push_pop_trace_golden():
    assert push_pop_trace(GOLDEN_TREE) == GOLDEN_TRACE
    assert GOLDEN_TRACE[0] == ("push", 5)
    assert GOLDEN_TRACE[-1] == ("pop", 7)
    assert len(GOLDEN_TRACE) == 20


@given(t=ltree_strategy(max_n=5))
def test_push_pop_trace_is_balanced(t):
    trace = push_pop_trace(t)
    n = node_count(t)
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
    assert d.semi_length == node_count(t)
    assert ldyck_to_ltree(d) == t


def test_ldyck_to_ltree_deep_left_path():
    # U^1500 D1 ... D1500 is one down block, so a left path deeper than the
    # default recursion limit of 1000
    d = LabeledDyckPath(("U",) * 1500 + tuple(f"D{i}" for i in range(1, 1501)))
    assert edge_stats(ldyck_to_ltree(d)) == (0, 1499, 0, 0)


@pytest.mark.parametrize("steps, left_paths", [
    (("U",) * 1500 + tuple(f"D{i}" for i in range(1, 1501)), 1),
    (tuple(step for i in range(1, 1501) for step in ("U", f"D{i}")), 1500),
], ids=["left-path", "right-path"])
def test_deep_trees_round_trip_without_recursion(steps, left_paths):
    # a left path and a right path 1,500 deep, past the default recursion
    # limit; paths are compared, since comparing trees recurses
    d = LabeledDyckPath(steps)
    tree = ldyck_to_ltree(d)
    assert ltree_to_ldyck(tree) == d
    assert check_ltree(tree) == 1500
    paths = mlpd(tree)
    assert len(paths) == left_paths
    assert sorted(label for p in paths for label in p.labels) == list(range(1, 1501))


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
    with pytest.raises(ValueError):
        tree_from_json({"left": {"label": 1}})


def test_tree_dot_smoke():
    dot = tree_dot(GOLDEN_TREE)
    assert dot.startswith("digraph")
    for label in range(1, 11):
        assert f"{label}" in dot
    assert "penwidth" in dot  # descent edges are drawn heavier


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
