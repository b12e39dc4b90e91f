import random
from dataclasses import fields
from collections import Counter
from itertools import chain, combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, strategies as st

from tabkit.dyck import (
    DyckPath,
    LabeledDyckPath,
    catalan,
    enumerate_dyck,
    enumerate_ldyck,
    format_word,
    labeled_dyck_word,
    ldyck_from_json,
    ldyck_to_spct,
    random_ldyck,
    spct_to_ldyck,
    up_step_labels,
)
from tabkit.tableaux import (
    ReverseTableau,
    Tableau,
    enumerate_spct,
    enumerate_srt,
    validate_pct,
)

from references import is_standard, srt_to_dyck

# a semi-length 10 path whose fully labeled word appears below
GOLDEN = LabeledDyckPath(
    ("U", "U", "D7", "D3", "U", "U", "U", "U", "D4", "U",
     "D1", "D10", "U", "D6", "D8", "U", "U", "D9", "D2", "D5")
)
GOLDEN_WORD = (
    "U7 U3 D7 D3 U10 U9 U8 U4 D4 U1 D1 D10 U6 D6 D8 U5 U2 D9 D2 D5"
)


@st.composite
def ldyck_strategy(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    paths = list(enumerate_ldyck(n))
    return paths[draw(st.integers(0, len(paths) - 1))]


def test_dyck_path_validity():
    DyckPath(("U", "D"))
    DyckPath(("U", "U", "D", "D"))
    with pytest.raises(ValueError):
        DyckPath(("D", "U"))
    with pytest.raises(ValueError):
        DyckPath(("U", "D", "U"))
    with pytest.raises(ValueError):
        DyckPath(("U", "X"))


def test_labeled_path_validity():
    LabeledDyckPath(("U", "D3", "U", "D1"))  # non-canonical labels allowed
    with pytest.raises(ValueError):
        LabeledDyckPath(("U", "D1", "U", "D1"))  # repeated label
    with pytest.raises(ValueError):
        LabeledDyckPath(("D1", "U"))
    with pytest.raises(ValueError):
        LabeledDyckPath(("U", "D0"))
    with pytest.raises(ValueError):
        LabeledDyckPath(("U", "Dx"))


def test_labeled_path_properties():
    d = LabeledDyckPath(("U", "D2", "U", "D1"))
    assert d.semi_length == 2
    assert d.down_labels == (2, 1)
    assert d.canonical
    assert d.unlabeled == DyckPath(("U", "D", "U", "D"))
    assert not LabeledDyckPath(("U", "D3", "U", "D1")).canonical
    assert LabeledDyckPath(()).canonical


def test_parsed_labels_stay_out_of_equality_hash_and_repr():
    d = LabeledDyckPath(("U", "U", "D12", "D3"))
    assert [f.name for f in fields(d)] == ["steps"]
    assert repr(d) == "LabeledDyckPath(steps=('U', 'U', 'D12', 'D3'))"
    assert d.down_labels == (12, 3)
    twin = LabeledDyckPath(("U", "U", "D12", "D3"))
    assert d == twin and hash(d) == hash(twin)
    assert up_step_labels(d) == (12, 3)  # stored on d, not on twin
    assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)
    assert d != LabeledDyckPath(("U", "U", "D3", "D12"))


def test_catalan_known():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


@given(n=st.integers(0, 6))
def test_enumerate_dyck_count(n):
    paths = list(enumerate_dyck(n))
    assert len(paths) == catalan(n)
    assert len(set(paths)) == len(paths)


@given(n=st.integers(1, 4))
def test_enumerate_ldyck_count(n):
    paths = list(enumerate_ldyck(n))
    assert len(paths) == factorial(n) * catalan(n)
    assert len(set(paths)) == len(paths)
    assert all(p.canonical for p in paths)


def test_up_step_labels_min_rule():
    # each up-step takes the smallest down label after it not already taken
    assert up_step_labels(LabeledDyckPath(("U", "D1", "U", "D2"))) == (1, 2)
    assert up_step_labels(LabeledDyckPath(("U", "U", "D2", "D1"))) == (2, 1)
    assert up_step_labels(LabeledDyckPath(("U", "U", "D1", "D2"))) == (2, 1)
    assert up_step_labels(LabeledDyckPath(("U", "D2", "U", "D1"))) == (2, 1)


def test_labeled_dyck_word_golden():
    assert format_word(labeled_dyck_word(GOLDEN)) == GOLDEN_WORD


@given(d=ldyck_strategy())
def test_up_labels_are_the_down_labels(d):
    assert sorted(up_step_labels(d)) == sorted(d.down_labels)


@given(d=ldyck_strategy())
def test_word_interleaves_both_step_kinds(d):
    word = labeled_dyck_word(d)
    assert len(word) == 2 * d.semi_length
    ups = [int(w[1:]) for w in word if w.startswith("U")]
    downs = [int(w[1:]) for w in word if w.startswith("D")]
    assert sorted(ups) == sorted(downs)
    # every up precedes its matching down
    for label in ups:
        assert word.index(f"U{label}") < word.index(f"D{label}")


def runs(d):
    """Maximal down-step blocks, rightmost block first, labels left to right:
    the blocks of the tree reading that ``test_trees`` checks the replay
    against."""
    blocks = []
    current = []
    labels = iter(d.down_labels)
    for s in d.steps:
        if s == "U":
            if current:
                blocks.append(tuple(current))
                current = []
        else:
            current.append(next(labels))
    if current:
        blocks.append(tuple(current))
    return tuple(reversed(blocks))


def test_runs_golden():
    # maximal down-step blocks, rightmost first
    assert runs(GOLDEN) == ((9, 2, 5), (6, 8), (1, 10), (4,), (7, 3))


def test_golden_tableau_pair():
    t = ldyck_to_spct(GOLDEN)
    assert t.rows == (
        (11, 10), (19, 17), (4, 2), (9, 8), (20, 16),
        (14, 13), (3, 1), (15, 7), (18, 6), (12, 5),
    )
    assert validate_pct(t).valid and is_standard(t)
    assert spct_to_ldyck(t) == GOLDEN


@given(d=ldyck_strategy())
def test_ldyck_spct_round_trip(d):
    t = ldyck_to_spct(d)
    assert t == Tableau(t.rows)  # built without the constructor checks
    assert validate_pct(t).valid
    assert t.shape == (2,) * d.semi_length
    assert spct_to_ldyck(t) == d


def test_spct_ldyck_round_trip_exhaustive():
    for n in range(1, 4):
        for t in enumerate_spct((2,) * n):
            assert ldyck_to_spct(spct_to_ldyck(t)) == t


def test_conversion_rejects_bad_input():
    with pytest.raises(ValueError):
        spct_to_ldyck(Tableau.from_rows([[2, 1], [3]]))
    with pytest.raises(ValueError):
        spct_to_ldyck(Tableau.from_rows([[3, 1], [4, 2]]))  # invalid tableau
    # its steps D1 U D2 U dip below the ground: a ValueError, not the
    # labeling rule's AssertionError
    with pytest.raises(ValueError, match="^input is not a valid standard tableau$"):
        spct_to_ldyck(Tableau(((1, 2), (3, 4))))
    with pytest.raises(ValueError):
        ldyck_to_spct(LabeledDyckPath(("U", "D3", "U", "D1")))  # not canonical


def test_the_empty_path_has_no_tableau():
    # a Tableau needs at least one row
    with pytest.raises(ValueError, match="^need at least one row: 0$"):
        ldyck_to_spct(ldyck_from_json({"steps": []}))


def test_spct_to_ldyck_accepts_exactly_the_valid_standard_fillings():
    # every filling of (2)^n by 1..2n, n <= 4 (41,066 in all): the round
    # trip through ldyck_to_spct decides validity as validate_pct does
    for n in range(1, 5):
        for entries in permutations(range(1, 2 * n + 1)):
            t = Tableau(tuple(zip(entries[::2], entries[1::2])))
            try:
                d = spct_to_ldyck(t)
            except ValueError as exc:
                assert str(exc) == "input is not a valid standard tableau"
                assert not validate_pct(t).valid, t.rows
            else:
                assert validate_pct(t).valid and ldyck_to_spct(d) == t


def test_spct_to_ldyck_accepts_exactly_the_listed_tableaux():
    # every filling of (2)^n by 1..2n for n <= 4, and by 1..2n+1 with
    # repeats for n <= 2: the accepted ones are those enumerate_spct lists,
    # and each path goes back to its tableau
    for n in range(1, 5):
        listed = {t.rows for t in enumerate_spct((2,) * n)}
        fillings = chain(permutations(range(1, 2 * n + 1)),
                         product(range(1, 2 * n + 2), repeat=2 * n) if n <= 2 else ())
        accepted = set()
        for entries in fillings:
            t = Tableau(tuple(zip(entries[::2], entries[1::2])))
            try:
                d = spct_to_ldyck(t)
            except ValueError as exc:
                assert str(exc) == "input is not a valid standard tableau"
                assert t.rows not in listed
            else:
                assert d.canonical and ldyck_to_spct(d) == t
                accepted.add(t.rows)
        assert accepted == listed
        assert len(listed) == factorial(n) * catalan(n)


def test_srt_to_dyck_folklore():
    assert srt_to_dyck(ReverseTableau.from_rows([[4, 2], [3, 1]])).word == "UUDD"
    assert srt_to_dyck(ReverseTableau.from_rows([[4, 3], [2, 1]])).word == "UDUD"
    for n in range(1, 5):
        images = {srt_to_dyck(T) for T in enumerate_srt((2,) * n)}
        assert len(images) == catalan(n)
        assert images == set(enumerate_dyck(n))


@given(seed=st.integers(0, 1000), n=st.integers(1, 8))
def test_random_ldyck_valid_and_reproducible(seed, n):
    d1 = random_ldyck(n, random.Random(seed))
    d2 = random_ldyck(n, random.Random(seed))
    assert d1 == d2
    assert d1.canonical
    assert d1.semi_length == n


class ScriptedRng:
    """Answers each ``sample`` call with the next scripted choice; any other
    use of the generator fails."""

    def __init__(self, *choices):
        self.choices = list(choices)

    def sample(self, population, k):
        choice = list(self.choices.pop(0))
        assert len(choice) == k and set(choice) <= set(population)
        return choice


def cycle_lemma_draws(n):
    """Every (up-position set, label order) choice of the sampler."""
    for ups in combinations(range(2 * n + 1), n):
        for labels in permutations(range(1, n + 1)):
            yield ScriptedRng(ups, labels)


@pytest.mark.parametrize("n", range(6))
def test_random_ldyck_is_exactly_uniform(n):
    hits = Counter()
    for rng in cycle_lemma_draws(n):
        hits[random_ldyck(n, rng)] += 1
        assert rng.choices == []
    assert hits == {d: 2 * n + 1 for d in enumerate_ldyck(n)}


def test_random_ldyck_refuses_a_negative_size():
    with pytest.raises(ValueError, match="semi-length must be nonnegative: -1"):
        random_ldyck(-1, random.Random(0))


def _is_dyck_word(word):
    height = 0
    for step in word:
        height += 1 if step == "U" else -1
        if height < 0:
            return False
    return height == 0


def test_enumerate_dyck_is_lexicographic():
    for n in range(9):
        words = ("".join(w) for w in product("UD", repeat=2 * n))
        reference = [w for w in words if _is_dyck_word(w)]
        assert [p.word for p in enumerate_dyck(n)] == reference


def test_enumerate_dyck_deep():
    assert next(enumerate_dyck(1500)).word == "U" * 1500 + "D" * 1500


@given(d=ldyck_strategy())
def test_json_round_trip(d):
    assert ldyck_from_json(d.to_json()) == d


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        ldyck_from_json({})
    with pytest.raises(ValueError):
        ldyck_from_json({"steps": "UD"})
    with pytest.raises(ValueError):
        ldyck_from_json({"steps": ["U", "D1"], "n": 5})
