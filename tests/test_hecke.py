from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from tabkit import hecke
from tabkit.core import check_composition, compositions_of
from tabkit.hecke import (
    DescentClass,
    classify,
    equivalence_classes,
    is_source,
    pi,
    swap_entries,
    verify_classes,
    verify_hecke_relations,
    verify_relations,
)
from tabkit.tableaux import (
    Tableau,
    _nonempty,
    _rows,
    _spct_walk,
    enumerate_spct,
    st_column,
    st_word,
    two_column_census,
    validate_pct,
)

from references import apply_word, is_sink, is_standard, recorded_checks

SPCT_1324 = Tableau.from_rows([[1], [7, 5, 2], [6, 4], [10, 9, 8, 3]])


@st.composite
def spct_strategy(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    comps = list(compositions_of(n))
    shape = comps[draw(st.integers(0, len(comps) - 1))]
    all_t = list(enumerate_spct(shape))
    return all_t[draw(st.integers(0, len(all_t) - 1))]


def test_classify_known():
    # 3 sits one column right of 2 and strictly below: attacking
    assert classify(SPCT_1324, 2) == DescentClass.ATTACKING
    # 4 is strictly left of 3: not a descent
    assert classify(SPCT_1324, 3) == DescentClass.NOT_DESCENT
    # 6 and 7 share the first column: attacking
    assert classify(SPCT_1324, 6) == DescentClass.ATTACKING
    # 1 in column 1, 2 in column 3 of the row below: nonattacking
    assert classify(SPCT_1324, 1) == DescentClass.NONATTACKING
    # 7 in column 1, 8 in column 3 strictly southeast but not adjacent
    assert classify(SPCT_1324, 7) == DescentClass.NONATTACKING
    with pytest.raises(ValueError):
        classify(SPCT_1324, 10)
    with pytest.raises(ValueError):
        classify(SPCT_1324, 0)


@pytest.mark.parametrize("rows, kind", [
    ([[3, 2], [1]], "moved"),
    ([[2, 1], [3]], "fixed"),
    ([[1], [2]], "zero"),
])
def test_an_index_that_is_not_an_int_is_refused(rows, kind):
    t = Tableau.from_rows(rows)
    assert pi(t, 1).kind == kind
    # a float passes the range test, and a bool is an int
    message = rf"^index must be an integer in 1\.\.{t.size - 1}: "
    for i in (1.5, True):
        for call in (lambda: classify(t, i), lambda: pi(t, i), lambda: apply_word(t, [i])):
            with pytest.raises(ValueError, match=message):
                call()


def test_swap_entries():
    t = Tableau.from_rows([[2, 1], [4, 3]])
    assert swap_entries(t, 2).rows == ((3, 1), (4, 2))
    assert swap_entries(swap_entries(t, 2), 2) == t
    for i in (0, True):  # would put 0, or the bool True, into the filling
        with pytest.raises(ValueError):
            swap_entries(t, i)


def test_pi_outcomes():
    # 3 is northeast of 2 across adjacent columns: nonattacking, so it moves
    t = Tableau.from_rows([[4, 3], [2, 1]])
    moved = pi(t, 2)
    assert moved.kind == "moved"
    assert moved.tableau.rows == ((4, 2), (3, 1))
    # in [[2,1],[4,3]], 3 is southeast of 2: attacking, so the operator
    # annihilates
    attacking = Tableau.from_rows([[2, 1], [4, 3]])
    assert pi(attacking, 2).kind == "zero"
    assert pi(attacking, 2).tableau is None
    # in the moved result, 3 is strictly left of 2: not a descent, fixed
    assert pi(moved.tableau, 2).kind == "fixed"
    assert pi(moved.tableau, 2).tableau == moved.tableau


@given(t=spct_strategy(), data=st.data())
def test_pi_idempotent(t, data):
    i = data.draw(st.integers(1, t.size - 1))
    once = apply_word(t, (i,))
    twice = apply_word(t, (i, i))
    assert once == twice


@given(t=spct_strategy(), data=st.data())
def test_pi_commutation(t, data):
    if t.size < 4:
        return
    i = data.draw(st.integers(1, t.size - 3))
    j = data.draw(st.integers(i + 2, t.size - 1))
    assert apply_word(t, (i, j)) == apply_word(t, (j, i))


@given(t=spct_strategy(), data=st.data())
def test_pi_braid(t, data):
    if t.size < 3:
        return
    i = data.draw(st.integers(1, t.size - 2))
    assert apply_word(t, (i, i + 1, i)) == apply_word(t, (i + 1, i, i + 1))


def test_pi_preserves_shape_and_type():
    for n in range(2, 7):
        for shape in compositions_of(n):
            for t in enumerate_spct(shape):
                sigma = st_column(t, 1)
                for i in range(1, n):
                    result = pi(t, i)
                    if result.kind != "moved":
                        continue
                    image = result.tableau
                    check = validate_pct(image)
                    assert check.valid, (t.rows, i)
                    assert image.shape == shape
                    assert check.sigma == sigma
                    assert is_standard(image)


def test_moved_images_of_the_table_pass_the_constructor_checks(monkeypatch):
    # the table moves row words; the filling of each moved word is the
    # public swap of the tableau it moved, and a valid Tableau
    moves = []
    swap = hecke._swap

    def recording_swap(word, p):
        result = swap(word, p)
        moves.append((word, len(word) - p, result))
        return result

    monkeypatch.setattr(hecke, "_swap", recording_swap)
    for n in range(2, 7):
        for shape in compositions_of(n):
            words = [w for w, _ in _spct_walk(shape)]
            list(hecke._action(words, len(shape)))
    assert len(moves) > 1000
    for word, i, moved in moves:
        swapped = swap_entries(Tableau(_rows(word)), i)
        assert Tableau(_rows(moved)) == swapped


def moved_to(monkeypatch, target):
    # every move of the table lands on the row word ``target``
    monkeypatch.setattr(hecke, "_swap", lambda w, p: target)


# each move lands on (4, 1)/(3, 2), a filling of the shape that breaks the
# triple condition, or on a filling of another shape.  A row word lists each
# entry once, in decreasing rows, so it cannot describe a non-standard or
# row-increasing image.
@pytest.mark.parametrize(
    "broken", [(0, 1, 1, 0), (0, 1, 1, 1)], ids=["invalid", "other-shape"]
)
def test_verify_hecke_relations_reports_a_broken_image(monkeypatch, broken):
    moved_to(monkeypatch, broken)
    report = verify_hecke_relations((2, 2))
    assert not report.passed
    # ((4, 3), (2, 1)), the first tableau the walk lists, moves by pi_2
    assert report.counterexample == (
        f"pi_2 image {hecke._rows(broken)} of ((4, 3), (2, 1)) is not a valid "
        "standard tableau of the same type"
    )


def test_verify_hecke_relations_reports_an_image_of_another_type(monkeypatch):
    # both standard tableaux of shape (1, 1) are valid, of types 12 and 21:
    # ((1,), (2,)) has the row word (1, 0), ((2,), (1,)) has (0, 1)
    action = hecke._action

    def broken_action(words, ell):
        for w, (cols, row) in zip(words, action(words, ell)):
            yield cols, [words.index((0, 1))] if w == (1, 0) else row

    monkeypatch.setattr(hecke, "_action", broken_action)
    report = verify_hecke_relations((1, 1))
    assert not report.passed
    assert report.counterexample == (
        "pi_1 image ((2,), (1,)) of ((1,), (2,)) is not a valid standard "
        "tableau of the same type"
    )


def test_verify_hecke_relations_reports_a_broken_relation(monkeypatch):
    # pi_1 now kills the tableaux it fixes, so pi_1 pi_1 kills a moved
    # tableau that pi_1 alone sends to a nonzero image
    action = hecke._action

    def broken_action(words, ell):
        for k, (cols, row) in enumerate(action(words, ell)):
            yield cols, [-1 if i == 1 and m == k else m for i, m in enumerate(row, start=1)]

    monkeypatch.setattr(hecke, "_action", broken_action)
    report = verify_hecke_relations((2, 1))
    assert not report.passed
    assert report.counterexample == "pi_1^2 != pi_1 on ((3, 2), (1,))"


def test_equivalence_classes_reports_a_move_out_of_its_class(monkeypatch):
    moved_to(monkeypatch, (0, 1, 1))  # ((3,), (2, 1)): not of the shape (2, 1)
    with pytest.raises(AssertionError, match=r"pi_1 moves \(\(3, 2\), \(1,\)\) out"):
        equivalence_classes((2, 1))


def test_equivalence_classes_reports_a_move_into_another_class(monkeypatch):
    # ((2, 1), (3,)), of row word (1, 0, 0), is a tableau of the shape,
    # alone in another class
    moved_to(monkeypatch, (1, 0, 0))
    with pytest.raises(AssertionError, match=r"pi_1 moves \(\(3, 2\), \(1,\)\) out"):
        equivalence_classes((2, 1))


def test_apply_word_zero_absorbs():
    t = Tableau.from_rows([[2, 1], [4, 3]])
    assert apply_word(t, (2,)) is None
    assert apply_word(t, (1, 3, 2)) is None  # rightmost operator annihilates
    assert apply_word(t, ()) == t


def test_verify_hecke_relations_small_shapes():
    for n in range(2, 6):
        for shape in compositions_of(n):
            report = verify_hecke_relations(shape)
            assert report.passed, report.counterexample
            assert report.shape == shape
            assert report.tableaux == sum(1 for _ in enumerate_spct(shape))
            assert report.checks > 0


def test_source_and_sink_membership():
    for shape in [(2, 2), (1, 2, 1), (3, 2)]:
        tableaux = list(enumerate_spct(shape))
        sources = [t for t in tableaux if is_source(t)]
        sinks = [t for t in tableaux if is_sink(t)]
        classes = equivalence_classes(shape)
        assert len(sources) == len(classes)
        assert len(sinks) == len(classes)


def test_equivalence_classes_partition():
    for shape in (alpha for n in range(1, 7) for alpha in compositions_of(n)):
        classes = equivalence_classes(shape)
        union = [t for cls in classes for t in cls.members]
        assert len(union) == sum(1 for _ in enumerate_spct(shape))
        assert len({t.rows for t in union}) == len(union)
        for cls in classes:
            assert cls.source in cls.members
            assert cls.sink in cls.members
            assert is_source(cls.source)
            assert is_sink(cls.sink)
            # the signature, read off the class key, is the standardized
            # column word of every member
            assert {st_word(t) for t in cls.members} == {cls.signature}


def test_members_of_one_class_share_column_sets():
    for cls in equivalence_classes((2, 1, 2)):
        first_columns = {tuple(sorted(row[0] for row in t.rows)) for t in cls.members}
        assert len(first_columns) >= 1  # columns may differ, the word may not
        assert len({st_word(t) for t in cls.members}) == 1


def test_class_counts_known():
    # one class per standardized column word witnessed; totals over all
    # shapes of n: 1, 3, 10, 42 for n = 1..4
    totals = [
        sum(len(equivalence_classes(shape)) for shape in compositions_of(n))
        for n in range(1, 5)
    ]
    assert totals == [1, 3, 10, 42]
    assert len(equivalence_classes((2, 2))) == 3
    assert len(equivalence_classes((2, 2, 2))) == 16


def test_moved_connected_observed_on_small_shapes():
    # the reference for the proof in EquivalenceClass: a BFS over the
    # undirected graph of pi moves between members, built from public pi
    for n in range(2, 7):
        for shape in compositions_of(n):
            for cls in equivalence_classes(shape):
                neighbors = {t: set() for t in cls.members}
                for t in cls.members:
                    for i in range(1, n):
                        result = pi(t, i)
                        if result.kind == "moved":
                            neighbors[t].add(result.tableau)
                            neighbors[result.tableau].add(t)
                seen, frontier = {cls.sink}, [cls.sink]
                while frontier:
                    frontier = [u for t in frontier for u in neighbors[t] - seen]
                    seen.update(frontier)
                assert seen == set(cls.members), cls.signature


def test_positions_derived_once_per_tableau(monkeypatch):
    # the table reads the cells of each row word, one pass per tableau;
    # ``positions`` serves only the public, Tableau-level functions
    calls = []
    columns = hecke._columns
    monkeypatch.setattr(hecke, "_columns", lambda w, ell: calls.append(w) or columns(w, ell))
    monkeypatch.setattr(hecke, "positions", None)  # any call would raise
    shape = (2, 2, 2, 2)  # 336 tableaux
    equivalence_classes(shape)
    assert len(calls) == 336
    calls.clear()
    verify_hecke_relations(shape)
    assert len(calls) == 336


def reference_action(tableaux):
    # the Tableau-keyed table, from public pi: row k, entry i-1 is the index
    # of pi_i(tableaux[k]); -1 when zero, None when the image is not listed
    index = {None: -1} | {t: k for k, t in enumerate(tableaux)}
    return [[index.get(pi(t, i).tableau) for i in range(1, t.size)] for t in tableaux]


def reference_classes(shape):
    # the classes grouped by st_word over Tableau objects, with moves from
    # public pi and sources from public is_source
    tableaux = sorted(enumerate_spct(shape), key=lambda t: t.rows)
    moved = {t for t in tableaux for i in range(1, t.size) if pi(t, i).kind == "moved"}
    groups = {}
    for t in tableaux:
        groups.setdefault(st_word(t), []).append(t)
    return tuple(
        hecke.EquivalenceClass(
            signature,
            tuple(members),
            *[t for t in members if is_source(t)],
            *[t for t in members if t not in moved],
        )
        for signature, members in sorted(groups.items())
    )


def test_table_matches_public_pi():
    for n in range(1, 7):
        for shape in compositions_of(n):
            words = [w for w, _ in _spct_walk(shape)]
            table = [row for _, row in hecke._action(words, len(shape))]
            assert table == reference_action(list(enumerate_spct(shape))), shape


def test_classes_match_the_tableau_reference():
    for n in range(1, 7):
        for shape in compositions_of(n):
            assert equivalence_classes(shape) == reference_classes(shape), shape


def reference_relations(shape):
    # the relation check one (tableau, relation) pair at a time, on the same
    # table: the reference for the column-wise check, which must report the
    # same earliest failure and the same count of checks
    shape = check_composition(shape)
    n = sum(shape)
    words = [w for w, _ in _spct_walk(_nonempty(shape))]
    table = [row for _, row in hecke._action(words, len(shape))]
    types = [tuple(dict.fromkeys(w)) for w in words]
    checks = 0

    def fail(witness):
        return hecke.RelationReport(False, shape, len(words), checks, witness)

    for k, w in enumerate(words):
        for i, m in enumerate(table[k], start=1):
            if m is None or (m >= 0 and types[m] != types[k]):
                image = _rows(hecke._swap(w, len(w) - i) if m is None else words[m])
                return fail(f"pi_{i} image {image} of {_rows(w)} "
                            "is not a valid standard tableau of the same type")
    table.append([-1] * (n - 1))  # the zero, at index -1, fixed by every pi_i
    relations = (
        [(f"pi_{i}^2 != pi_{i}", (i, i), (i,)) for i in range(1, n)]
        + [(f"pi_{i} pi_{j} != pi_{j} pi_{i}", (i, j), (j, i))
           for i, j in combinations(range(1, n), 2) if j - i >= 2]
        + [(f"braid relation fails at i={i}", (i, i + 1, i), (i + 1, i, i + 1))
           for i in range(1, n - 1)]
    )

    def image(k, word):
        for i in reversed(word):  # right to left
            k = table[k][i - 1]
        return k

    for k in range(len(words)):
        for name, left, right in relations:
            checks += 1
            if image(k, left) != image(k, right):
                return fail(f"{name} on {_rows(words[k])}")
    return hecke.RelationReport(True, shape, len(words), checks, None)


def test_relations_match_the_per_tableau_reference():
    for n in range(1, 7):
        for shape in compositions_of(n):
            assert verify_hecke_relations(shape) == reference_relations(shape), shape


def killed(monkeypatch, cells):
    # pi_i now kills each tableau (given by its rows) of the (rows, i) cells
    action = hecke._action

    def broken_action(words, ell):
        for w, (cols, row) in zip(words, action(words, ell)):
            yield cols, [-1 if (_rows(w), i) in cells else m
                         for i, m in enumerate(row, start=1)]

    monkeypatch.setattr(hecke, "_action", broken_action)


# On (3, 2), pi_1 fixes both tableaux.  Killing the first breaks the braid
# relation, the last relation, on the first tableau the walk lists; killing
# the second breaks pi_1^2 = pi_1, the first relation, on the second tableau
# listed, which pi_1 moves onto it.  Together, the earlier tableau wins.
FIRST = (((5, 4, 3), (2, 1)), 1)
SECOND = (((5, 4, 1), (3, 2)), 1)
EARLIEST = "braid relation fails at i=1 on ((5, 4, 3), (2, 1))"


@pytest.mark.parametrize("cells, checks, counterexample", [
    ({FIRST}, 8, EARLIEST),
    ({SECOND}, 11, "pi_1^2 != pi_1 on ((5, 4, 2), (3, 1))"),
    ({FIRST, SECOND}, 8, EARLIEST),
], ids=["first", "second", "both"])
def test_broken_relations_match_the_per_tableau_reference(
    monkeypatch, cells, checks, counterexample
):
    killed(monkeypatch, cells)
    report = verify_hecke_relations((3, 2))
    assert report == reference_relations((3, 2))
    assert not report.passed
    assert (report.checks, report.counterexample) == (checks, counterexample)


def test_permutation_count_equals_sources_on_columns():
    # every type is witnessed by at least one class on a rectangle
    classes = equivalence_classes((2, 2, 2))
    types = {cls.signature[0] for cls in classes}
    assert types == set(permutations((1, 2, 3)))


def test_two_column_sources_count_the_classes():
    for n in range(1, 6):
        assert two_column_census(n)[1] == len(equivalence_classes((2,) * n)), n


def test_verify_relations_rows_are_the_recorded_ones():
    shapes = [shape for m in range(1, 6) for shape in compositions_of(m)]
    rows = [verify_relations(shape) for shape in shapes]
    assert all(witness is None for _, witness in rows)
    assert [row for row, _ in rows] == recorded_checks("verify hecke --max-n 5")


def test_verify_relations_names_the_shape_of_a_broken_image(monkeypatch):
    moved_to(monkeypatch, (0, 1, 1, 0))
    row, witness = verify_relations((2, 2))
    assert row == {"shape": "2,2", "tableaux": 4, "checks": 0, "pass": False}
    assert witness == (
        "shape 2,2: pi_2 image ((4, 1), (3, 2)) of ((4, 3), (2, 1)) is not a "
        "valid standard tableau of the same type"
    )


def test_verify_classes_rows_are_the_recorded_ones():
    shapes = [shape for m in range(1, 7) for shape in compositions_of(m)]
    rows = [verify_classes(shape) for shape in shapes]
    assert all(witness is None for _, witness in rows)
    assert [row for row, _ in rows] == recorded_checks("verify classes --max-size 6")


def test_verify_classes_fails_the_row_of_a_shape_whose_classes_raise(monkeypatch):
    def broken(shape):
        raise AssertionError("no classes")

    monkeypatch.setattr(hecke, "_grouped", broken)
    assert verify_classes((2, 1)) == (
        {"shape": "2,1", "classes": 0, "pass": False}, "shape 2,1: no classes")
    # a real failure of the classes names the move
    monkeypatch.undo()
    moved_to(monkeypatch, (1, 0, 0))
    row, witness = verify_classes((2, 1))
    assert row == {"shape": "2,1", "classes": 0, "pass": False}
    assert witness == "shape 2,1: pi_1 moves ((3, 2), (1,)) out of its class"


# On (3, 2) the classes have 1, 2 and 5 members.  Every word a source, or no
# word moved, breaks exactly one count in each class of two or more members.
# The walk meets the class of five first; the signature order names the
# class of two.
@pytest.mark.parametrize("seam, broken, counts", [
    ("_is_source", lambda word, cols: True, "2 sources and 1 sinks"),
    ("_moves", lambda table: iter(()), "1 sources and 2 sinks"),
], ids=["sources", "sinks"])
def test_a_class_with_one_count_wrong_fails(monkeypatch, seam, broken, counts):
    monkeypatch.setattr(hecke, seam, broken)
    message = f"class ((1, 2), (2, 1), (1,)) has {counts}"
    with pytest.raises(AssertionError) as raised:
        equivalence_classes((3, 2))
    assert str(raised.value) == message
    assert verify_classes((3, 2)) == (
        {"shape": "3,2", "classes": 0, "pass": False}, f"shape 3,2: {message}")


def test_verify_classes_builds_no_tableau(monkeypatch):
    # the check reads the walk's row words; only equivalence_classes builds
    # the members
    def refuse(cls, rows):
        raise RuntimeError(f"built a tableau of {rows}")

    monkeypatch.setattr(Tableau, "_trusted", classmethod(refuse))
    shapes = [shape for m in range(1, 7) for shape in compositions_of(m)]
    rows = [verify_classes(shape) for shape in shapes]
    assert all(witness is None for _, witness in rows)
    assert [row for row, _ in rows] == recorded_checks("verify classes --max-size 6")
    with pytest.raises(RuntimeError, match="built a tableau"):
        equivalence_classes((2, 1))
