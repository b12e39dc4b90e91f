import random
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from tabkit.allowable import (
    PermGraph,
    _label_sequence,
    _pair_bits,
    _triple_bits,
    allowable_pairs,
    build_graph,
    is_123312_avoiding,
    is_2112_avoiding,
    is_acyclic,
    is_allowable_pair,
    is_allowable_sequence,
    realize_sct,
    topological_spct,
    verify_pairs,
)
from tabkit.core import (
    identity,
    inversions,
    left_cover_swaps,
    maximal_chain_to,
    weak_bruhat_leq,
)
from tabkit.tableaux import enumerate_spct, st_column, st_word, validate_pct


@st.composite
def pair_strategy(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    a = tuple(draw(st.permutations(range(1, n + 1))))
    b = tuple(draw(st.permutations(range(1, n + 1))))
    return a, b


def has_2112_occurrence(a, b):
    n = len(a)
    return any(
        a[i] > a[j] and b[i] < b[j] for i in range(n) for j in range(i + 1, n)
    )


def has_123312_occurrence(a, b):
    n = len(a)
    return any(
        a[i] < a[j] < a[k] and b[j] < b[k] < b[i]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


@given(pair=pair_strategy())
def test_predicates_match_brute_force(pair):
    a, b = pair
    assert is_2112_avoiding(a, b) == (not has_2112_occurrence(a, b))
    assert is_123312_avoiding(a, b) == (not has_123312_occurrence(a, b))
    assert is_allowable_pair(a, b) == (
        is_2112_avoiding(a, b) and is_123312_avoiding(a, b)
    )


@given(pair=pair_strategy())
def test_2112_avoidance_is_weak_order(pair):
    # one loop serves both names; the weak order's definition is the
    # containment of inversion sets
    a, b = pair
    assert is_2112_avoiding is weak_bruhat_leq
    assert is_2112_avoiding(a, b) == (inversions(a) <= inversions(b))


def test_predicates_known():
    assert is_allowable_pair((1, 2), (1, 2))
    assert is_allowable_pair((1, 2), (2, 1))
    assert not is_allowable_pair((2, 1), (1, 2))  # goes down in weak order
    assert is_allowable_pair((3, 1, 2), (3, 2, 1))
    # an increasing a-triple whose b-values rotate: the forbidden pattern
    assert not is_123312_avoiding((1, 2, 3), (3, 1, 2))
    assert not is_allowable_pair((1, 2, 3), (3, 1, 2))


def test_predicates_reject_size_mismatch():
    with pytest.raises(ValueError):
        is_2112_avoiding((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        is_123312_avoiding((1,), (1, 2))


def test_allowable_pairs_counts():
    assert [sum(1 for _ in allowable_pairs(n)) for n in range(1, 5)] == [
        1,
        3,
        16,
        125,
    ]


def test_allowable_pairs_refuses_a_negative_size_at_the_call():
    with pytest.raises(ValueError, match="n must be nonnegative: -1"):
        allowable_pairs(-1)
    # the empty permutation pairs with itself
    assert list(allowable_pairs(0)) == [((), ())]


def test_allowable_pairs_sound_and_complete():
    for n in range(1, 5):
        listed = set(allowable_pairs(n))
        everything = {
            (a, b)
            for a in permutations(range(1, n + 1))
            for b in permutations(range(1, n + 1))
            if is_allowable_pair(a, b)
        }
        assert listed == everything


def test_identity_pairs_with_everything_above():
    for n in range(1, 5):
        e = identity(n)
        partners = {b for a, b in allowable_pairs(n) if a == e}
        # from the identity, the second pattern is the only constraint
        assert all(is_123312_avoiding(e, b) for b in partners)


def test_allowable_sequence_checks_consecutive_pairs():
    assert is_allowable_sequence(((1, 2), (1, 2), (2, 1)))
    assert not is_allowable_sequence(((2, 1), (1, 2)))
    chain = maximal_chain_to((3, 1, 2))
    assert is_allowable_sequence(chain)


def test_st_pairs_of_two_column_tableaux_are_the_allowable_pairs():
    for n in range(1, 4):
        observed = {
            (st_column(t, 1), st_column(t, 2)) for t in enumerate_spct((2,) * n)
        }
        assert observed == set(allowable_pairs(n))


def test_verify_pairs_reports_every_check():
    assert verify_pairs(4) == ({
        "n": 4, "pairs": 125, "expected": 125, "weak_order_agrees": True,
        "covers_allowable": True, "matches_tableau_pairs": True, "pass": True,
    }, None)
    # past n = 4 the tableau pairs are not listed
    assert list(verify_pairs(5)[0]) == [
        "n", "pairs", "expected", "weak_order_agrees", "covers_allowable", "pass",
    ]
    assert verify_pairs(6) == ({
        "n": 6, "pairs": 16_807, "expected": 16_807, "weak_order_agrees": True,
        "covers_allowable": True, "pass": True,
    }, None)
    with pytest.raises(ValueError):
        verify_pairs(0)


def test_verify_pairs_fails_on_a_broken_scan(monkeypatch):
    # a 123-312 bit test that never fires: the 2112-avoiding pairs are too many
    monkeypatch.setattr("tabkit.allowable._triple_bits", lambda p: (0, 0))
    report, witness = verify_pairs(3)
    assert (report["pairs"], report["matches_tableau_pairs"], report["pass"]) == (17, False, False)
    # the witness is the failing row, as ``tk verify pairs`` reports it
    assert witness == f"n=3: {report}"
    # a 2112 bit test that passes every candidate disagrees with the weak order
    monkeypatch.setattr("tabkit.allowable._pair_bits", lambda p: 0)
    report, witness = verify_pairs(3)
    assert (report["weak_order_agrees"], report["pass"]) == (False, False)
    assert witness == f"n=3: {report}"
    # one that passes only b = a misses the rest of each up-set
    monkeypatch.setattr("tabkit.allowable._pair_bits", lambda p: 1 << int("".join(map(str, p))))
    report, witness = verify_pairs(3)
    assert (report["pairs"], report["weak_order_agrees"], report["pass"]) == (6, False, False)
    assert witness == f"n=3: {report}"


def test_verify_pairs_fails_on_a_dropped_cover(monkeypatch):
    # the identity's last cover is an atom, above nothing else the identity
    # reaches, so its up-set loses that atom and the 2112-avoiders disagree
    def one_cover_less(p):
        swaps = left_cover_swaps(p)
        return swaps[:-1] if p == identity(len(p)) else swaps

    monkeypatch.setattr("tabkit.allowable.left_cover_swaps", one_cover_less)
    report, witness = verify_pairs(3)
    assert (report["pairs"], report["weak_order_agrees"], report["pass"]) == (16, False, False)
    assert witness == f"n=3: {report}"


def test_bit_tests_agree_with_the_scans():
    # every (a, b) of size <= 5: 15,017 pairs
    checked = 0
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        bits = {p: (_pair_bits(p), *_triple_bits(p)) for p in perms}
        for (a, (inv_a, inc_a, _)), (b, (inv_b, _, p312_b)) in product(bits.items(), repeat=2):
            assert (inv_a & ~inv_b == 0) == is_2112_avoiding(a, b), (a, b)
            assert (inc_a & p312_b == 0) == is_123312_avoiding(a, b), (a, b)
            checked += 1
    assert checked == 15_017


def test_graph_shape_and_edge_counts():
    sigmas = ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    g = build_graph(sigmas)
    n, k = 3, 3
    assert g.n == n and g.k == k
    assert len(g.nodes) == n * k
    horizontal = [e for e in g.edges if e[2] == "horizontal"]
    vertical = [e for e in g.edges if e[2] == "vertical"]
    diagonal = [e for e in g.edges if e[2] == "diagonal"]
    assert len(horizontal) == n * (k - 1)
    assert len(vertical) == k * n * (n - 1) // 2
    # one diagonal edge per non-inverted pair of each later column
    expected = sum(
        n * (n - 1) // 2 - len(inversions(sigma)) for sigma in sigmas[1:]
    )
    assert len(diagonal) == expected


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(((1, 2),))  # needs at least two columns
    with pytest.raises(ValueError):
        build_graph(((1, 2), (1, 2, 3)))  # mixed sizes
    with pytest.raises(ValueError):
        build_graph(((2, 1), (1, 2)))  # not an allowable sequence


def test_permgraph_validates_edges():
    with pytest.raises(ValueError):
        PermGraph(n=2, k=2, edges=frozenset({((1, 1), (5, 5), "horizontal")}))
    with pytest.raises(ValueError):
        PermGraph(n=2, k=2, edges=frozenset({((1, 1), (1, 2), "sideways")}))


def test_acyclicity_for_allowable_sequences():
    for n in range(1, 5):
        for a, b in allowable_pairs(n):
            assert is_acyclic(build_graph(maximal_chain_to(a) + (b,)))


def test_known_cycle():
    seq = ((1, 2, 3), (3, 1, 2))
    with pytest.raises(ValueError):
        build_graph(seq)  # the pair has the forbidden 123/312 pattern
    # the grid graph the edge rules give for seq; it holds the cycle
    # (1,1) -> (1,2) -> (3,2) -> (2,1) -> (1,1)
    edges = {
        ((1, 1), (1, 2), "horizontal"),
        ((2, 1), (2, 2), "horizontal"),
        ((3, 1), (3, 2), "horizontal"),
        ((2, 1), (1, 1), "vertical"),
        ((3, 1), (1, 1), "vertical"),
        ((3, 1), (2, 1), "vertical"),
        ((1, 2), (2, 2), "vertical"),
        ((1, 2), (3, 2), "vertical"),
        ((3, 2), (2, 2), "vertical"),
        ((3, 2), (2, 1), "diagonal"),
    }
    g = PermGraph(n=3, k=2, edges=frozenset(edges))
    assert not is_acyclic(g)
    with pytest.raises(ValueError):
        topological_spct(g)


def candidate_scan_labeling(g):
    """Reference labeling: for each label in turn, scan every node for the
    unlabeled ones whose out-neighbors are all labeled, and take the one
    with the smallest (column, row)."""
    out = {v: set() for v in g.nodes}
    for src, dst, _ in g.edges:
        out[src].add(dst)
    label = {}
    for next_label in range(1, g.n * g.k + 1):
        candidates = [
            v for v in g.nodes
            if v not in label and all(w in label for w in out[v])
        ]
        if not candidates:
            raise ValueError("graph has a cycle; no labeling exists")
        label[min(candidates, key=lambda v: (v[1], v[0]))] = next_label
    return tuple(
        tuple(label[(i, j)] for j in range(1, g.k + 1)) for i in range(1, g.n + 1)
    )


def test_topological_spct_matches_candidate_scan():
    for n in range(1, 5):
        for a, b in allowable_pairs(n):
            g = build_graph(maximal_chain_to(a) + (b,))
            assert topological_spct(g).rows == candidate_scan_labeling(g)


def test_topological_spct_recovers_columns():
    sigmas = ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    t = topological_spct(build_graph(sigmas))
    assert t.shape == (3, 3, 3)
    assert validate_pct(t).valid
    assert st_word(t) == sigmas


def test_realize_known():
    assert realize_sct((1, 2), (1, 2)).rows == ((2, 1), (4, 3))


def test_realize_all_small_pairs():
    for n in range(1, 6):
        for a, b in allowable_pairs(n):
            t = realize_sct(a, b)
            assert validate_pct(t).valid
            assert st_word(t) == maximal_chain_to(a) + (b,)


def labels_as_the_graph(seq):
    return _label_sequence(seq).rows == topological_spct(build_graph(seq)).rows


def test_label_sequence_matches_the_graph_on_every_chain_pair():
    for n in range(1, 6):
        for a, b in allowable_pairs(n):
            assert labels_as_the_graph(maximal_chain_to(a) + (b,)), (a, b)


def test_label_sequence_matches_the_graph_on_every_three_column_sequence():
    # and on every four-column one
    checked = {3: 0, 4: 0}
    for n in range(1, 4):
        perms = list(permutations(range(1, n + 1)))
        for k in checked:
            for seq in product(perms, repeat=k):
                if is_allowable_sequence(seq):
                    assert labels_as_the_graph(seq), seq
                    checked[k] += 1
    # three columns: 1 + 4 + 33 allowable sequences; four: 1 + 5 + 59
    assert checked == {3: 38, 4: 65}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_label_sequence_matches_the_graph_on_walks_in_the_pair_graph(n):
    rng = random.Random(2017 + n)
    perms = list(permutations(range(1, n + 1)))
    for k in (4, 5, 6):
        for _ in range(4):
            seq = [rng.choice(perms)]
            while len(seq) < k:
                seq.append(rng.choice([b for b in perms if is_allowable_pair(seq[-1], b)]))
            assert labels_as_the_graph(tuple(seq)), seq


def test_realize_builds_no_graph(monkeypatch):
    def no_graph(*args):
        raise AssertionError("the grid graph was built")

    monkeypatch.setattr("tabkit.allowable.PermGraph", no_graph)
    assert realize_sct((2, 1, 3), (3, 2, 1)).rows == ((6, 5, 4), (7, 3, 2), (9, 8, 1))
    with pytest.raises(AssertionError):
        build_graph(((1, 2), (1, 2)))


def test_realize_the_reversed_pair_at_n_40():
    top = tuple(range(40, 0, -1))
    t = realize_sct(top, top)
    # l(top) = 780, so the chain and the extra column make 782 columns
    assert t.shape == (782,) * 40
    assert validate_pct(t).valid
    assert st_word(t) == maximal_chain_to(top) + (top,)


def test_realize_rejects_non_allowable(monkeypatch):
    # the labeler assumes an allowable sequence and has no guard of its own,
    # so the refusal must come before it runs
    def no_labeling(seq):
        raise AssertionError("the labeler ran")

    monkeypatch.setattr("tabkit.allowable._label_sequence", no_labeling)
    # a 123-312 occurrence, then a 2112 one
    for a, b in (((1, 2, 3), (3, 1, 2)), ((2, 1), (1, 2))):
        with pytest.raises(ValueError, match="pair is not allowable"):
            realize_sct(a, b)
