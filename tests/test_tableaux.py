from collections import Counter, defaultdict
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from tabkit.core import compositions_of, to_partition
from tabkit.dyck import catalan
from tabkit.tableaux import (
    ReverseTableau,
    Tableau,
    _columns,
    _quadruple,
    _spct_walk,
    _two_column_work,
    column_word,
    count_spct,
    descent_quadruple,
    descent_quadruple_counts,
    descent_set,
    enumerate_spct,
    enumerate_spct_sigma,
    enumerate_srt,
    from_json,
    is_standard,
    pct_to_rt,
    positions,
    render,
    rt_to_pct,
    st_column,
    st_word,
    two_column_census,
    validate_pct,
)

# a non-standard tableau with repeated entries and its standard companion,
# both of shape (1, 3, 2, 4) and type 1324
PCT_REPEATS = Tableau.from_rows([[1], [4, 3, 2], [3, 2], [7, 5, 5, 3]])
SPCT_1324 = Tableau.from_rows([[1], [7, 5, 2], [6, 4], [10, 9, 8, 3]])

# a four-column tableau of type 3142 and its column-sorted partner
PCT_3142 = Tableau.from_rows([[10, 8, 6, 4], [2], [11, 7, 5], [9, 3, 1]])
RT_4331 = ReverseTableau.from_rows([[11, 8, 6, 4], [10, 7, 5], [9, 3, 1], [2]])


@st.composite
def composition_strategy(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    comps = list(compositions_of(n))
    return comps[draw(st.integers(min_value=0, max_value=len(comps) - 1))]


@st.composite
def filling_strategy(draw, max_n=5):
    """An arbitrary filling with weakly decreasing rows, entries <= size."""
    shape = draw(composition_strategy(max_n=max_n))
    n = sum(shape)
    rows = []
    for width in shape:
        row = sorted(
            draw(st.lists(st.integers(1, n), min_size=width, max_size=width)),
            reverse=True,
        )
        rows.append(row)
    return Tableau.from_rows(rows)


@st.composite
def spct_strategy(draw, max_n=6):
    shape = draw(composition_strategy(max_n=max_n))
    all_t = list(enumerate_spct(shape))
    return all_t[draw(st.integers(min_value=0, max_value=len(all_t) - 1))]


def hook_count(lam):
    """Standard fillings of a partition shape via the hook length product."""
    n = sum(lam)
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    product = 1
    for i, part in enumerate(lam):
        for j in range(part):
            product *= (part - j) + (cols[j] - i) - 1
    return factorial(n) // product


def test_tableau_basics():
    t = SPCT_1324
    assert t.shape == (1, 3, 2, 4)
    assert t.size == 10
    assert t.entry(4, 1) == 10
    assert Tableau.from_rows([[1], [7, 5, 2], [6, 4], [10, 9, 8, 3]]) == t


def test_tableau_rejects_bad_rows():
    with pytest.raises(ValueError):
        Tableau.from_rows([])
    with pytest.raises(ValueError):
        Tableau.from_rows([[1], []])
    with pytest.raises(ValueError):
        Tableau.from_rows([[0, 1]])


def test_reverse_tableau_enforces_conditions():
    with pytest.raises(ValueError):
        ReverseTableau.from_rows([[1, 2], [3]])  # row increases
    with pytest.raises(ValueError):
        ReverseTableau.from_rows([[2, 1], [2]])  # column repeats
    with pytest.raises(ValueError):
        ReverseTableau.from_rows([[2], [1, 1]])  # not a partition shape
    with pytest.raises(ValueError):
        ReverseTableau.from_rows([[9, 1], [2]])  # entry exceeds size


def test_validate_known_tableaux():
    assert validate_pct(PCT_REPEATS).valid
    assert validate_pct(PCT_REPEATS).sigma == (1, 3, 2, 4)
    assert validate_pct(SPCT_1324).valid
    assert validate_pct(PCT_3142).valid
    assert validate_pct(PCT_3142).sigma == (3, 1, 4, 2)


def test_validate_pinpoints_violations():
    repeat = validate_pct(Tableau.from_rows([[2, 1], [2]]))
    assert not repeat.valid
    assert {v.kind for v in repeat.violations} == {"first-column-repeat"}

    increase = validate_pct(Tableau.from_rows([[1, 2]]))
    assert {v.kind for v in increase.violations} == {"row-increase"}

    out_of_range = validate_pct(Tableau.from_rows([[9], [1]]))
    assert {v.kind for v in out_of_range.violations} == {"entry-range"}

    # 3 left of 1 with 2 below the 1: 3 >= 2 forces the entry above 2 to
    # exceed it, but 1 <= 2
    triple = validate_pct(Tableau.from_rows([[3, 1], [4, 2]]))
    assert not triple.valid
    assert {v.kind for v in triple.violations} == {"triple"}


def test_triple_condition_counts_missing_cell_as_zero():
    # row 1 stops at column 1, so 3 in row 2 sits right of a cell with
    # nothing above it; 3 >= 3 makes the configuration illegal
    assert not validate_pct(Tableau.from_rows([[3], [2, 1]])).valid
    assert validate_pct(Tableau.from_rows([[3, 1], [2]])).valid
    assert not validate_pct(Tableau.from_rows([[2], [3, 1]])).valid


def validate_pct_alt(t: Tableau) -> bool:
    """Equivalent validity test in a different formulation; the reference
    ``test_validators_agree`` compares ``validate_pct`` against.

    Replaces the triple condition by: column entries are distinct; for cells
    (i, j) above (k, j) in any column j >= 2, if the upper entry is smaller
    then the lower entry exceeds the upper entry's left neighbor; and any
    entry in column j >= 2 exceeds every entry of a shorter row above it
    whose cells stop just left of column j.
    """
    n = t.size
    if any(x > n for row in t.rows for x in row):
        return False
    first_col = [row[0] for row in t.rows]
    if len(set(first_col)) != len(first_col):
        return False
    for row in t.rows:
        if any(row[c - 1] < row[c] for c in range(1, len(row))):
            return False
    ncols = max(len(row) for row in t.rows)
    for j in range(1, ncols):  # 0-indexed column j, i.e. column j+1 >= 2
        cells = [(i, row[j]) for i, row in enumerate(t.rows) if len(row) > j]
        values = [x for _, x in cells]
        if len(set(values)) != len(values):
            return False
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                (i, upper), (k, lower) = cells[a], cells[b]
                if upper < lower and not lower > t.rows[i][j - 1]:
                    return False
        for k, lower in cells:
            for i in range(k):
                if len(t.rows[i]) == j and not t.rows[i][j - 1] < lower:
                    return False
    return True


@given(t=filling_strategy())
def test_validators_agree(t):
    assert validate_pct(t).valid == validate_pct_alt(t)


@given(t=spct_strategy())
def test_enumerated_are_valid_standard(t):
    assert validate_pct(t).valid
    assert is_standard(t)


def test_enumerated_tableaux_pass_the_constructor_checks():
    # the walk builds its tableaux without running the constructor checks
    for n in range(1, 7):
        for shape in compositions_of(n):
            for t in enumerate_spct(shape):
                assert t == Tableau(t.rows)
        for lam in {to_partition(c) for c in compositions_of(n)}:
            for T in enumerate_srt(lam):
                assert T == ReverseTableau(T.rows)


def test_enumerate_matches_brute_force():
    for n in range(1, 5):
        for shape in compositions_of(n):
            fast = {t.rows for t in enumerate_spct(shape)}
            slow = set()
            for values in permutations(range(1, n + 1)):
                rows = []
                k = 0
                for width in shape:
                    rows.append(values[k : k + width])
                    k += width
                t = Tableau.from_rows(rows)
                if all(
                    row[i] > row[i + 1] for row in rows for i in range(len(row) - 1)
                ) and validate_pct(t).valid:
                    slow.add(t.rows)
            assert fast == slow, shape


def recursive_spct(shape):
    """The recursive enumerator that the flat walk in ``enumerate_spct``
    replaced: one nested generator per entry.  The reference for its output
    order."""
    n = sum(shape)
    ell = len(shape)
    rows = [[] for _ in range(ell)]
    lengths = [0] * ell

    def place(v):
        if v == 0:
            yield Tableau.from_rows(rows)
            return
        for r in range(ell):
            c = lengths[r]
            if c >= shape[r]:
                continue
            if c >= 1 and any(lengths[i] == c for i in range(r)):
                continue
            rows[r].append(v)
            lengths[r] += 1
            yield from place(v - 1)
            rows[r].pop()
            lengths[r] -= 1

    return place(n)


def test_enumerate_spct_keeps_the_recursive_order():
    shapes = [shape for n in range(1, 8) for shape in compositions_of(n)]
    total = 0
    for shape in shapes:
        flat = list(enumerate_spct(shape))
        assert flat == list(recursive_spct(shape)), shape
        total += len(flat)
    assert (len(shapes), total) == (127, 17_487)


def test_enumerate_spct_known_counts():
    # over all shapes of 3: 1 + 3 + 1 + 6 = 11 = 1!*1 + 2!*2 + 3!*1
    assert sum(1 for _ in enumerate_spct((3,))) == 1
    assert sum(1 for _ in enumerate_spct((2, 1))) == 3
    assert sum(1 for _ in enumerate_spct((1, 2))) == 1
    assert sum(1 for _ in enumerate_spct((1, 1, 1))) == 6
    assert sum(1 for _ in enumerate_spct((2, 2))) == 4
    assert sum(1 for _ in enumerate_spct((1, 3, 2, 4))) > 0


def test_enumerate_by_type_partitions_the_set():
    for shape in [(2, 2), (1, 3), (2, 1, 2)]:
        whole = {t.rows for t in enumerate_spct(shape)}
        pieces = {}
        for sigma in permutations(range(1, len(shape) + 1)):
            pieces[sigma] = {t.rows for t in enumerate_spct_sigma(shape, sigma)}
        assert set().union(*pieces.values()) == whole
        for sigma, piece in pieces.items():
            assert all(st_column(Tableau(rows), 1) == sigma for rows in piece)
        assert sum(len(p) for p in pieces.values()) == len(whole)


def test_enumerate_spct_sigma_is_the_filter_in_order():
    pairs = 0
    for n in range(1, 8):
        for shape in compositions_of(n):
            # the in-order filter of the whole shape, one pass for all types
            kept = defaultdict(list)
            for t in enumerate_spct(shape):
                kept[st_column(t, 1)].append(t)
            for sigma in permutations(range(1, len(shape) + 1)):
                walked = list(enumerate_spct_sigma(shape, sigma))
                assert walked == kept[sigma], (shape, sigma)
                pairs += 1
    assert pairs == 13_699


def test_every_type_of_a_two_column_rectangle_has_catalan_many():
    for n, catalan in [(4, 14), (5, 42), (6, 132)]:
        for sigma in permutations(range(1, n + 1)):
            assert sum(1 for _ in enumerate_spct_sigma((2,) * n, sigma)) == catalan


def test_one_type_of_a_large_rectangle_is_walked_alone():
    # the whole shape (2)^9 holds 9!*Cat(9), about 1.8e9 tableaux
    identity = tuple(range(1, 10))
    assert sum(1 for _ in enumerate_spct_sigma((2,) * 9, identity)) == 4_862


def recursive_syt(lam):
    """Standard fillings of a partition shape with increasing rows and
    columns, built by removing the corner holding the largest entry: the
    enumerator behind ``enumerate_srt`` before reverse tableaux became a
    slice of the walk, and the reference for its set."""
    n = sum(lam)
    if n == 0:
        yield ()
        return
    for r in range(len(lam)):
        if r + 1 < len(lam) and lam[r] == lam[r + 1]:
            continue
        child = list(lam)
        child[r] -= 1
        if child[r] == 0:
            child.pop(r)
        for smaller in recursive_syt(tuple(child)):
            rows = [list(row) for row in smaller]
            if r == len(rows):
                rows.append([])
            rows[r].append(n)
            yield tuple(tuple(row) for row in rows)


def test_enumerate_srt_matches_the_recursive_reference():
    for n in range(1, 9):
        for lam in {to_partition(c) for c in compositions_of(n)}:
            walked = [T.rows for T in enumerate_srt(lam)]
            want = {
                tuple(tuple(n + 1 - x for x in row) for row in rows)
                for rows in recursive_syt(lam)
            }
            assert len(walked) == len(want) and set(walked) == want, lam


def test_enumerate_srt_matches_hook_counts():
    for lam in [(1,), (2,), (2, 1), (2, 2), (3, 2), (2, 2, 1), (4, 3, 3, 1)]:
        assert sum(1 for _ in enumerate_srt(lam)) == hook_count(lam)


def test_srt_rejects_non_partition():
    with pytest.raises(ValueError):
        list(enumerate_srt((1, 2)))


@given(sigma_index=st.integers(0, 23), n=st.integers(1, 5))
@settings(max_examples=40)
def test_column_sort_union_identity(n, sigma_index):
    """Column sorting maps the shapes rearranging to one partition onto the
    reverse tableaux of that partition, for any first-column type."""
    for lam in {to_partition(c) for c in compositions_of(n)}:
        sigmas = list(permutations(range(1, len(lam) + 1)))
        sigma = sigmas[sigma_index % len(sigmas)]
        total = 0
        images = set()
        for shape in compositions_of(n):
            if to_partition(shape) != lam:
                continue
            for t in enumerate_spct_sigma(shape, sigma):
                images.add(pct_to_rt(t).rows)
                total += 1
        assert total == hook_count(lam)
        assert len(images) == total
        assert images == {T.rows for T in enumerate_srt(lam)}


@given(t=spct_strategy())
def test_pct_rt_round_trip(t):
    sigma = st_column(t, 1)
    T = pct_to_rt(t)
    assert to_partition(t.shape) == T.shape
    assert rt_to_pct(T, sigma) == t


def valid_pcts(max_n):
    """Every valid PCT of size at most max_n with entries at most its size,
    semistandard ones included, with its type."""
    for n in range(1, max_n + 1):
        for shape in compositions_of(n):
            # rows weakly decrease in every valid PCT
            choices = [
                list(combinations_with_replacement(range(n, 0, -1), width))
                for width in shape
            ]
            for rows in product(*choices):
                t = Tableau(rows)
                result = validate_pct(t)
                if result.valid:
                    yield t, result.sigma


def test_shape_bijection_outputs_pass_the_constructor_checks():
    # pct_to_rt and rt_to_pct build their results without the checks
    count = 0
    for t, sigma in valid_pcts(5):
        T = pct_to_rt(t)
        assert T == ReverseTableau(T.rows)
        back = rt_to_pct(T, sigma)
        assert back == Tableau(back.rows) and back == t
        count += 1
    assert count > sum(1 for n in range(1, 6) for c in compositions_of(n)
                       for _ in enumerate_spct(c))


def test_known_pct_rt_pair():
    assert pct_to_rt(PCT_3142).rows == RT_4331.rows
    assert rt_to_pct(RT_4331, (3, 1, 4, 2)) == PCT_3142


def test_round_trip_with_repeated_entries():
    T = pct_to_rt(PCT_REPEATS)
    assert T.rows == ((7, 5, 5, 3), (4, 3, 2), (3, 2), (1,))
    assert rt_to_pct(T, (1, 3, 2, 4)) == PCT_REPEATS


def test_st_word_known():
    assert st_word(PCT_REPEATS) == ((1, 3, 2, 4), (2, 1, 3), (1, 2), (1,))
    assert st_column(PCT_3142, 1) == (3, 1, 4, 2)
    assert column_word(SPCT_1324, 2) == (5, 4, 9)


def test_descent_set_known():
    assert sorted(descent_set(SPCT_1324)) == [1, 2, 4, 6, 7]


@given(n=st.integers(1, 4), data=st.data())
def test_descent_quadruple_partitions_rows(n, data):
    all_t = list(enumerate_spct((2,) * n))
    t = all_t[data.draw(st.integers(0, len(all_t) - 1))]
    quad = descent_quadruple(t)
    assert all(x >= 0 for x in quad)
    assert sum(quad) == n - 1


def test_descent_quadruple_rejects_other_shapes():
    with pytest.raises(ValueError):
        descent_quadruple(SPCT_1324)


def reference_quadruple(t):
    # the rule entry by entry over positions: for i in the first column,
    # i+1 north, south, northeast or southeast, south unless strictly north
    pos = positions(t)
    counts = [0, 0, 0, 0]
    for i in range(1, t.size):
        (r1, c1), (r2, c2) = pos[i], pos[i + 1]
        if c1 == 1:
            counts[(0 if c2 == 1 else 2) + (0 if r2 < r1 else 1)] += 1
    return tuple(counts)


def test_descent_quadruple_matches_the_per_entry_rule():
    # every filling of (2)^n by 1..2n, n <= 3, valid or not
    for n in range(1, 4):
        for entries in permutations(range(1, 2 * n + 1)):
            t = Tableau(tuple(zip(entries[::2], entries[1::2])))
            assert descent_quadruple(t) == reference_quadruple(t), t.rows


def walk_census(n):
    # the reference: the quadruple of every row word the walk lists
    return Counter(
        _quadruple(word, _columns(word, n))
        for word, _ in _spct_walk((2,) * n, kind=None)
    )


def test_descent_quadruple_counts_match_the_tableaux():
    for n in range(1, 7):
        want = Counter(descent_quadruple(t) for t in enumerate_spct((2,) * n))
        assert walk_census(n) == want, n
        assert descent_quadruple_counts(n) == want, n
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"need at least one row: {bad}"):
            descent_quadruple_counts(bad)


def test_two_column_census_closed_forms():
    # past enumeration: n! Cat(n) tableaux, and (n+1)^(n-1) of them with
    # any one coordinate zero, and as many sources
    for n in range(1, 9):
        counts, sources = two_column_census(n)
        assert sum(counts.values()) == factorial(n) * catalan(n), n
        for k in range(4):
            zero = sum(ways for q, ways in counts.items() if q[k] == 0)
            assert zero == (n + 1) ** (n - 1), (n, k)
        assert sources == (n + 1) ** (n - 1), n
        assert all(sum(q) == n - 1 for q in counts), n


def test_two_column_work_sums_the_states_by_rows_not_full():
    for n in range(1, 12):
        states = sum(2**k * (2 * k + 1) for k in range(n + 1))
        assert _two_column_work(n) == states * comb(n + 2, 3)


def test_count_spct_matches_the_walk():
    for m in range(1, 8):
        for shape in compositions_of(m):
            for sigma in [None, *permutations(range(1, len(shape) + 1))]:
                want = sum(1 for _ in _spct_walk(shape, sigma))
                assert count_spct(shape, None, sigma) == want, (shape, sigma)
                # a limit stops the count only once it has passed: every
                # prefix the count keeps completes to a tableau
                assert count_spct(shape, want, sigma) == want, (shape, sigma)
                assert count_spct(shape, want - 1, sigma) > want - 1, (shape, sigma)
    with pytest.raises(ValueError):
        count_spct(())
    with pytest.raises(ValueError, match="type length 3 does not match 2 rows"):
        count_spct((2, 2), sigma=(1, 2, 3))
    with pytest.raises(ValueError):
        count_spct((2, 2), sigma=(1, 1))


def test_count_spct_is_at_most_the_factorial():
    # the shapes that sort to lambda hold ell! f^lambda tableaux, and
    # f^lambda <= m!/ell! since the first column's hooks multiply to at
    # least ell!; (1)^m attains m!
    for m in range(1, 9):
        counts = {shape: count_spct(shape) for shape in compositions_of(m)}
        assert max(counts.values()) == factorial(m) == counts[(1,) * m], m


def test_count_spct_limit_stops_early():
    # (2)^40 has over 10^60 tableaux; unlimited, the count would not finish
    assert count_spct((2,) * 40, 1000) > 1000


def test_positions_inverts_entries():
    pos = positions(SPCT_1324)
    assert pos[1] == (1, 1)
    assert pos[10] == (4, 1)
    assert pos[8] == (4, 3)
    assert all(SPCT_1324.entry(r, c) == v for v, (r, c) in pos.items())
    with pytest.raises(ValueError):
        positions(PCT_REPEATS)  # repeated entries
    with pytest.raises(ValueError):
        positions(Tableau.from_rows([[3, 1]]))  # distinct, but 2 is missing


@given(t=spct_strategy())
def test_json_round_trip(t):
    assert from_json(t.to_json()) == t


def test_json_round_trip_reverse():
    assert from_json(RT_4331.to_json()) == RT_4331
    assert isinstance(from_json(RT_4331.to_json()), ReverseTableau)


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json({"rows": "nope"})
    with pytest.raises(ValueError):
        from_json({})


def test_render_shows_every_entry():
    text = render(SPCT_1324)
    for value in range(1, 11):
        assert str(value) in text
