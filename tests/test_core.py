from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from tabkit.core import (
    apply_left_swap,
    check_composition,
    check_permutation,
    composition_size,
    compositions_of,
    format_composition,
    format_permutation,
    identity,
    inversions,
    is_permutation,
    left_cover_swaps,
    maximal_chain_to,
    parse_composition,
    parse_permutation,
    partitions_of,
    standardize,
    to_partition,
    weak_bruhat_leq,
)


@st.composite
def permutation_strategy(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


@st.composite
def composition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1)) if n > 1 else st.just(set()))
    bounds = [0, *sorted(cuts), n]
    return tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def test_identity():
    assert identity(1) == (1,)
    assert identity(4) == (1, 2, 3, 4)


def test_is_permutation():
    assert is_permutation((2, 1, 3))
    assert is_permutation(())  # the empty bijection
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((2, 3))
    # bool is an int subclass and 1.0 == 1: both sort like a permutation
    assert not is_permutation((1.0, 2.0))
    assert not is_permutation((True, 2))


def test_check_permutation_rejects():
    with pytest.raises(ValueError):
        check_permutation((1, 3))
    with pytest.raises(ValueError):
        check_permutation((0, 1))
    for seq in ((1.0, 2.0), (True, 2)):
        with pytest.raises(ValueError, match="not a permutation of"):
            check_permutation(seq)


def test_standardize_known():
    assert standardize((10, 2, 11, 9)) == (3, 1, 4, 2)
    assert standardize((3, 2, 5)) == (2, 1, 3)
    assert standardize((7,)) == (1,)
    assert standardize((1, 4, 3, 7)) == (1, 3, 2, 4)


def test_standardize_breaks_ties_by_position():
    assert standardize((2, 2)) == (1, 2)
    assert standardize((3, 1, 2, 2)) == (4, 1, 2, 3)
    with pytest.raises(ValueError):
        standardize(())


def test_inversions_known():
    assert inversions((1, 2, 3)) == frozenset()
    assert inversions((3, 1, 2)) == frozenset({(1, 2), (1, 3)})
    assert inversions((3, 2, 1)) == frozenset({(1, 2), (1, 3), (2, 3)})


def test_weak_bruhat_known():
    assert weak_bruhat_leq((1, 2, 3), (3, 1, 2))
    assert weak_bruhat_leq((2, 1, 3), (2, 3, 1)) is False
    assert weak_bruhat_leq((2, 1, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        weak_bruhat_leq((1, 2), (1, 2, 3))


def test_weak_bruhat_is_inversion_set_containment():
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        for a in perms:
            for b in perms:
                assert weak_bruhat_leq(a, b) == (inversions(a) <= inversions(b))
    # words with repeated letters: equal letters form no inversion
    for a, b in [((2, 2, 1), (3, 1, 2)), ((2, 2, 1), (3, 2, 1)),
                 ((1, 1), (2, 1)), ((2, 1), (1, 1))]:
        assert weak_bruhat_leq(a, b) == (inversions(a) <= inversions(b))


@given(p=permutation_strategy())
def test_standardize_of_permutation_is_itself(p):
    assert standardize(p) == p


@given(p=permutation_strategy())
def test_weak_bruhat_reflexive_and_bounded(p):
    n = len(p)
    assert weak_bruhat_leq(p, p)
    assert weak_bruhat_leq(identity(n), p)
    assert weak_bruhat_leq(p, tuple(range(n, 0, -1)))


@given(p=permutation_strategy(), q=permutation_strategy())
def test_weak_bruhat_antisymmetric(p, q):
    if len(p) == len(q) and weak_bruhat_leq(p, q) and weak_bruhat_leq(q, p):
        assert p == q


@given(p=permutation_strategy())
def test_left_cover_swaps_add_one_inversion(p):
    for v in left_cover_swaps(p):
        q = apply_left_swap(p, v)
        assert len(inversions(q)) == len(inversions(p)) + 1
        assert inversions(p) < inversions(q)


@given(p=permutation_strategy())
def test_maximal_chain_is_saturated(p):
    chain = maximal_chain_to(p)
    assert chain[0] == identity(len(p))
    assert chain[-1] == p
    assert len(chain) == 1 + len(inversions(p))
    for a, b in zip(chain, chain[1:]):
        assert weak_bruhat_leq(a, b)
        assert len(inversions(b)) == len(inversions(a)) + 1


def test_maximal_chain_deterministic():
    assert maximal_chain_to((3, 1, 2)) == ((1, 2, 3), (2, 1, 3), (3, 1, 2))


def reference_chain_to(t):
    """The chain with its state rebuilt at every step: a position dict and the
    left covers of the current permutation, the smallest swap value that
    stays below t taken."""
    chain = [identity(len(t))]
    current = chain[0]
    while current != t:
        pos = {x: i for i, x in enumerate(current)}
        for v in left_cover_swaps(current):
            if t[pos[v]] > t[pos[v + 1]]:
                current = apply_left_swap(current, v)
                chain.append(current)
                break
        else:
            raise AssertionError(f"no cover step from {current} toward {t}")
    return tuple(chain)


def test_maximal_chain_matches_the_rebuilt_chain_on_all_of_s_n():
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            assert maximal_chain_to(p) == reference_chain_to(p)


def test_compositions_of_known():
    assert list(compositions_of(1)) == [(1,)]
    assert list(compositions_of(3)) == [(3,), (2, 1), (1, 2), (1, 1, 1)]


@pytest.mark.parametrize("n", range(1, 13))
def test_partitions_of_are_the_sorted_compositions(n):
    listed = list(partitions_of(n))
    assert listed == sorted({to_partition(c) for c in compositions_of(n)}, reverse=True)


def test_partitions_of_refuses_a_nonpositive_size():
    with pytest.raises(ValueError):
        next(partitions_of(0))


@given(n=st.integers(min_value=1, max_value=10))
def test_compositions_count_and_sums(n):
    comps = list(compositions_of(n))
    assert len(comps) == 2 ** (n - 1)
    assert len(set(comps)) == len(comps)
    assert all(composition_size(c) == n for c in comps)


@given(c=composition_strategy())
def test_to_partition_sorted(c):
    lam = to_partition(c)
    assert sorted(lam, reverse=True) == list(lam)
    assert sorted(lam) == sorted(c)


def test_check_composition_rejects_nonpositive():
    with pytest.raises(ValueError):
        check_composition((1, 0, 2))
    with pytest.raises(ValueError):
        check_composition((-1,))
    for parts in ((1.5, 2), (2.0, 1), (True, 2)):
        with pytest.raises(ValueError, match="composition parts must be positive"):
            check_composition(parts)


def test_a_float_part_is_refused_as_not_an_integer():
    # the text names the fault: 1.5 is positive, but not an integer
    with pytest.raises(ValueError) as raised:
        check_composition((1.5, 2))
    assert str(raised.value) == "composition parts must be positive integers: (1.5, 2)"


@given(p=permutation_strategy())
def test_permutation_text_round_trip(p):
    assert parse_permutation(format_permutation(p)) == p


@given(c=composition_strategy())
def test_composition_text_round_trip(c):
    assert parse_composition(format_composition(c)) == c


def test_parsing_accepts_commas_and_spaces():
    assert parse_permutation("3 1 2") == (3, 1, 2)
    assert parse_permutation("3,1,2") == (3, 1, 2)
    with pytest.raises(ValueError):
        parse_permutation("")
    with pytest.raises(ValueError):
        parse_composition("1,a")


@given(n=st.integers(min_value=1, max_value=6))
def test_chain_count_to_longest_element(n):
    longest = tuple(range(n, 0, -1))
    assert len(maximal_chain_to(longest)) == 1 + n * (n - 1) // 2


def test_factorial_many_permutations_are_comparable_to_top():
    n = 4
    top = (4, 3, 2, 1)
    assert sum(weak_bruhat_leq(p, top) for p in permutations(range(1, n + 1))) == factorial(n)
