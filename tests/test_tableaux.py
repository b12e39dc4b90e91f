import re
from collections import Counter, defaultdict
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial
from random import Random
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from tabkit import tableaux
from tabkit.allowable import realize_sct
from tabkit.core import compositions_of, partitions_of, standardize, to_partition
from tabkit.dyck import catalan, ldyck_to_spct, random_ldyck
from tabkit.tableaux import (
    ReverseTableau,
    Tableau,
    ValidationResult,
    Violation,
    _check_type,
    _quadruple,
    _spct_walk,
    _walk_moves,
    column_word,
    count_spct,
    count_srt,
    descent_quadruple,
    descent_quadruple_counts,
    descent_set,
    enumerate_spct,
    enumerate_spct_sigma,
    enumerate_srt,
    from_json,
    pct_to_rt,
    positions,
    rt_to_pct,
    st_column,
    st_word,
    two_column_census,
    two_column_work,
    validate_pct,
)

from references import is_standard, reference_census

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


def reference_validate_pct(t: Tableau) -> ValidationResult:
    """``validate_pct`` as a loop over every pair of rows for the triple
    condition: the reference its one-sweep check is compared with, down to
    the order and text of each violation."""
    violations = []
    n = t.size
    for r, row in enumerate(t.rows, start=1):
        for c, x in enumerate(row, start=1):
            if x > n:
                violations.append(Violation(
                    "entry-range", ((r, c),),
                    f"entry {x} at ({r},{c}) exceeds the cell count {n}",
                ))
    first_col = [row[0] for row in t.rows]
    seen = {}
    for r, x in enumerate(first_col, start=1):
        if x in seen:
            violations.append(Violation(
                "first-column-repeat", ((seen[x], 1), (r, 1)),
                f"first column repeats {x} at rows {seen[x]} and {r}",
            ))
        else:
            seen[x] = r
    for r, row in enumerate(t.rows, start=1):
        for c in range(1, len(row)):
            if row[c - 1] < row[c]:
                violations.append(Violation(
                    "row-increase", ((r, c), (r, c + 1)),
                    f"row {r} increases from column {c} to {c + 1}",
                ))
    ell = len(t.rows)
    for i in range(ell):
        for k in range(i + 1, ell):
            for j in range(min(len(t.rows[i]), len(t.rows[k]) - 1)):
                a = t.rows[i][j]
                b = t.rows[i][j + 1] if j + 1 < len(t.rows[i]) else None
                c = t.rows[k][j + 1]
                if a >= c and (b is None or b <= c):
                    detail = (f"({i + 1},{j + 2})={b}" if b is not None
                              else f"({i + 1},{j + 2}) empty")
                    violations.append(Violation(
                        "triple", ((i + 1, j + 1), (i + 1, j + 2), (k + 1, j + 2)),
                        f"cells ({i + 1},{j + 1})={a}, {detail}, ({k + 1},{j + 2})={c}: "
                        f"{a} >= {c} needs a larger entry above",
                    ))
    sigma = None if violations else standardize(first_col)
    return ValidationResult(sigma, tuple(violations))


def test_validate_pct_matches_the_triple_loop_on_every_small_filling():
    # entries up to n + 1, so that every kind of violation occurs
    fillings = 0
    for n in range(1, 5):
        for shape in compositions_of(n):
            for entries in product(range(1, n + 2), repeat=n):
                cells = iter(entries)
                t = Tableau.from_rows([[next(cells) for _ in range(w)] for w in shape])
                assert validate_pct(t) == reference_validate_pct(t), t.rows
                fillings += 1
    # 2^(n-1) compositions of n, each with (n+1)^n fillings
    assert fillings == sum(2 ** (n - 1) * (n + 1) ** n for n in range(1, 5))


def test_validate_pct_matches_the_triple_loop_on_every_standard_filling():
    # every permutation of 1..n over every composition of n, n <= 6: the
    # sizes that ``tk verify bijections`` sweeps by default and in the
    # benchmark
    fillings = 0
    for n in range(1, 7):
        for shape in compositions_of(n):
            for entries in permutations(range(1, n + 1)):
                cells = iter(entries)
                t = Tableau(tuple(tuple(next(cells) for _ in range(w)) for w in shape))
                assert validate_pct(t) == reference_validate_pct(t), t.rows
                fillings += 1
    assert fillings == sum(2 ** (n - 1) * factorial(n) for n in range(1, 7)) == 25181


@given(t=filling_strategy() | filling_strategy(max_n=10))
def test_validate_pct_matches_the_triple_loop(t):
    assert validate_pct(t) == reference_validate_pct(t)


def corrupt(t: Tableau, rng: Random) -> Tableau:
    """t with one to three faults: two entries swapped, a row reversed, or
    an entry pushed past the cell count."""
    rows = [list(row) for row in t.rows]
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    for _ in range(rng.randint(1, 3)):
        fault = rng.randrange(3)
        if fault == 0:
            (r, c), (q, d) = rng.sample(cells, 2)
            rows[r][c], rows[q][d] = rows[q][d], rows[r][c]
        elif fault == 1:
            rows[rng.randrange(len(rows))].reverse()
        else:
            r, c = rng.choice(cells)
            rows[r][c] = t.size + rng.randint(1, 3)
    return Tableau.from_rows(rows)


def test_validate_pct_matches_the_triple_loop_on_corrupted_large_tableaux():
    # standard PCTs of size 30 to 200, past the hypothesis sizes, where
    # interleaved faults test the sweep's merges after each hit: two-column
    # rectangles from labeled paths and rectangles realizing pairs
    rng = Random(3301)
    sources = [ldyck_to_spct(random_ldyck(rng.randint(15, 100), rng))
               for _ in range(150)]
    perms = {n: list(permutations(range(1, n + 1))) for n in (6, 7)}
    while len(sources) < 300:
        n = rng.choice((6, 7))
        try:
            t = realize_sct(rng.choice(perms[n]), rng.choice(perms[n]))
        except ValueError:  # not an allowable pair
            continue
        if t.size >= 30:
            sources.append(t)
    rejected = 0
    for t in sources:
        assert validate_pct(t).valid
        bad = corrupt(t, rng)
        result = validate_pct(bad)
        assert result == reference_validate_pct(bad), bad.rows
        rejected += not result.valid
    assert rejected > 250


def reversed_rectangle(ell: int) -> Tableau:
    """The standard two-column rectangle with rows (2l-2i, 2l-2i-1), its
    row l/2 + 1 reversed."""
    rows = [(2 * ell - 2 * i, 2 * ell - 2 * i - 1) for i in range(ell)]
    rows[ell // 2] = rows[ell // 2][::-1]
    return Tableau(tuple(rows))


def test_validate_pct_rejects_a_long_tableau_in_one_sweep():
    t = reversed_rectangle(2_000)
    assert validate_pct(t) == reference_validate_pct(t)
    # a loop over every pair of rows takes tens of seconds here, the sweep
    # well under one
    t = reversed_rectangle(10_000)
    start = perf_counter()
    result = validate_pct(t)
    assert perf_counter() - start < 5
    assert [(v.kind, v.cells) for v in result.violations] == [
        ("row-increase", ((5001, 1), (5001, 2)))
    ]
    start = perf_counter()
    with pytest.raises(ValueError, match=r"^not a valid PCT: row 5001 increases "
                       r"from column 1 to 2$"):
        pct_to_rt(t)
    assert perf_counter() - start < 5


def test_pct_to_rt_names_the_first_violation_and_counts_the_rest():
    # every row increases: 2,000 violations, one named
    t = Tableau(tuple((2 * i - 1, 2 * i) for i in range(1, 2_001)))
    assert len(validate_pct(t).violations) == 2_000
    with pytest.raises(ValueError) as info:
        pct_to_rt(t)
    assert str(info.value) == (
        "not a valid PCT: row 1 increases from column 1 to 2 (and 1999 more)"
    )


def test_each_check_sweeps_once(monkeypatch):
    # accepting or rejecting, a check sweeps the rows once
    sweeps = []
    sweep = tableaux._pct_faults
    monkeypatch.setattr(tableaux, "_pct_faults",
                        lambda rows, n: sweeps.append(rows) or sweep(rows, n))
    for t in (PCT_3142, reversed_rectangle(6)):
        sweeps.clear()
        valid = validate_pct(t).valid
        assert sweeps == [t.rows]
        sweeps.clear()
        if valid:
            pct_to_rt(t)
        else:
            with pytest.raises(ValueError, match="^not a valid PCT: row 4 increases"):
                pct_to_rt(t)
        assert sweeps == [t.rows]


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


def test_count_srt_is_the_hook_product_and_the_walk_count():
    for n in range(1, 10):
        for lam in partitions_of(n):
            decreasing = tuple(range(len(lam), 0, -1))
            assert count_srt(lam) == hook_count(lam) == count_spct(lam, sigma=decreasing)


@pytest.mark.parametrize("lam", [
    (40, 30, 20, 10), (10,) * 10, (50,) + (1,) * 50, (9, 9, 8, 8, 7, 5, 3, 3, 1),
])
def test_count_srt_multiplies_many_hooks_in_halves(lam):
    # over 64 cells, so the hooks are multiplied as a balanced product
    assert count_srt(lam) == hook_count(lam)


def test_count_srt_counts_a_long_row_and_a_long_column():
    # a running product of 10^5 hooks took about 5 s
    assert count_srt((10**5,)) == count_srt((1,) * 10**5) == 1


def test_pct_count_by_partitions_is_the_count_by_compositions():
    # the shape-rearranging bijection: each standard PCT of shape alpha is a
    # pair (T, sigma), T a reverse tableau of the sorted shape lam and sigma
    # one of its l(lam)! types
    # one pair (T, sigma) each; past size 8 the transfer drops full rows of
    # mixed shapes beyond the exhaustive typed comparison
    total = 0
    for m in range(1, 11):
        by_partitions = sum(factorial(len(lam)) * count_srt(lam) for lam in partitions_of(m))
        assert by_partitions == sum(count_spct(alpha) for alpha in compositions_of(m)), m
        total += by_partitions
        if m == 8:
            assert total == 145_864
    assert total == 13_903_448


def test_srt_rejects_non_partition():
    with pytest.raises(ValueError):
        list(enumerate_srt((1, 2)))
    with pytest.raises(ValueError):
        count_srt((1, 2))


def test_float_and_bool_shapes_and_types_are_refused():
    # refused at the check, not left to fail or yield nothing inside
    with pytest.raises(ValueError, match="composition parts must be positive"):
        count_spct((1.5, 2))
    with pytest.raises(ValueError, match="composition parts must be positive"):
        count_srt((2.0, 1))
    with pytest.raises(ValueError, match="composition parts must be positive"):
        list(enumerate_spct((1.5, 2)))
    T = ReverseTableau.from_rows(((2,), (1,)))
    for sigma in ((1.0, 2.0), (True, 2)):
        with pytest.raises(ValueError, match="not a permutation of"):
            rt_to_pct(T, sigma)


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


def reference_rt_to_pct(T: ReverseTableau, sigma) -> Tableau:
    """``rt_to_pct`` placing each entry by a linear scan over the rows: the
    reference its heap of open rows is compared with."""
    sigma = _check_type(sigma, len(T.rows))
    first = sorted(row[0] for row in T.rows)
    built = [[first[sigma[r] - 1]] for r in range(len(T.rows))]
    for k in range(1, len(T.rows[0])):
        entries = sorted((row[k] for row in T.rows if len(row) > k), reverse=True)
        for v in entries:
            for row in built:
                if len(row) == k and row[-1] >= v:
                    row.append(v)
                    break
            else:
                raise AssertionError(
                    f"no row accepts {v} in column {k + 1}; input corrupt"
                )
    return Tableau.from_rows(built)


def outcome(f, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returned", f(*args)
    except Exception as exc:  # compared, never swallowed
        return "raised", type(exc), str(exc)


def test_rt_to_pct_matches_the_linear_scan_under_every_type():
    calls = 0
    for n in range(1, 7):
        for lam in sorted({to_partition(a) for a in compositions_of(n)}):
            for T in enumerate_srt(lam):
                for sigma in permutations(range(1, len(lam) + 1)):
                    assert outcome(rt_to_pct, T, sigma) == outcome(
                        reference_rt_to_pct, T, sigma
                    ), (T.rows, sigma)
                    calls += 1
    # every standard reverse tableau of size at most 6, under each of its
    # row count's factorial types
    assert calls == sum(
        factorial(len(lam)) * hook_count(lam)
        for n in range(1, 7)
        for lam in {to_partition(a) for a in compositions_of(n)}
    )


def test_rt_to_pct_images_are_the_standard_pcts_of_each_size():
    # the reference for the pct-rt rows of ``tk verify bijections``, which
    # run the (T, sigma) direction: every standard PCT of size m is the image
    # of exactly one (T, sigma), and goes back to itself through its own T
    # and first-column type
    for m in range(1, 7):
        images = [
            rt_to_pct(T, sigma).rows
            for lam in partitions_of(m)
            for T in enumerate_srt(lam)
            for sigma in permutations(range(1, len(lam) + 1))
        ]
        listed = [t for alpha in compositions_of(m) for t in enumerate_spct(alpha)]
        assert len(images) == len(set(images)) == len(listed)
        assert set(images) == {t.rows for t in listed}
        for t in listed:
            assert rt_to_pct(pct_to_rt(t), st_column(t, 1)) == t


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


@pytest.mark.parametrize("col", [True, 1.0, 1.5, 0, 5])
def test_a_column_index_that_is_not_a_column_is_refused(col):
    for read in (column_word, st_column):
        with pytest.raises(ValueError, match=f"^column index out of range: {re.escape(repr(col))}$"):
            read(SPCT_1324, col)


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
        _quadruple(word, cols)
        for word, cols, _ in _spct_walk((2,) * n)
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
    for n in range(1, 11):
        counts, sources = two_column_census(n)
        assert sum(counts.values()) == factorial(n) * catalan(n), n
        for k in range(4):
            zero = sum(ways for q, ways in counts.items() if q[k] == 0)
            assert zero == (n + 1) ** (n - 1), (n, k)
        assert sources == (n + 1) ** (n - 1), n
        assert all(sum(q) == n - 1 for q in counts), n


def test_two_column_census_matches_the_per_move_reference():
    # the whole distribution and the sources, against the transfer that
    # works out every step on every move
    for n in range(1, 9):
        assert two_column_census(n) == reference_census(n), n


def test_two_column_census_works_out_each_step_once(monkeypatch):
    # a step reads only the last cell and the new one: at most 2n cells each
    calls = 0

    def counted(rows, cols):
        nonlocal calls
        calls += 1
        return _quadruple(rows, cols)

    monkeypatch.setattr(tableaux, "_quadruple", counted)
    n = 6
    two_column_census(n)
    assert 0 < calls <= 4 * n**2


def test_two_column_work_sums_the_states_by_rows_not_full():
    for n in range(1, 12):
        states = sum(2**k * (2 * k + 1) for k in range(n + 1))
        assert two_column_work(n) == states * comb(n + 2, 3)


def test_two_column_work_bounds_the_entries_the_census_carries():
    # every (state, quadruple) entry of every level after the start
    for n in range(1, 10):
        entries: list[int] = []
        reference_census(n, entries)
        assert len(entries) == 2 * n
        assert sum(entries) <= two_column_work(n), n
    assert sum(entries) == 57_087


def test_the_walk_yields_the_cells_of_its_words():
    # letter p of a word is the entry n - p: its row is the letter, and its
    # column the walk's; both are the cell ``positions`` gives that entry
    cases = [(shape, None) for m in range(1, 8) for shape in compositions_of(m)]
    cases += [(shape, sigma) for m in range(1, 7) for shape in compositions_of(m)
              for sigma in permutations(range(1, len(shape) + 1))]
    words = 0
    for shape, sigma in cases:
        for word, cols, rows in _spct_walk(shape, sigma):
            pos = positions(Tableau.from_rows(rows))
            cells = [pos[v] for v in range(len(word), 0, -1)]
            assert cells == [(r + 1, c) for r, c in zip(word, cols)], (shape, sigma, word)
            words += 1
    # every standard PCT of size <= 7, then again of size <= 6, by type
    assert words == sum(count_spct(shape) for m in range(1, 8) for shape in compositions_of(m)) \
        + sum(count_spct(shape) for m in range(1, 7) for shape in compositions_of(m))


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


def packed(shape, sigma, prefix, p):
    # the transfer's state after the walk placed n, n-1, ... in the rows of
    # prefix: the rows not yet full, as c * p + a, a, or a - sigma_r * p
    # when empty, and the row index of each
    lengths = Counter(prefix)
    kept = [r for r, a in enumerate(shape) if lengths[r] < a]
    state = tuple(lengths[r] * p + shape[r] if lengths[r] else
                  shape[r] - sigma[r] * p if sigma else shape[r] for r in kept)
    return state, kept


def test_the_walk_and_the_transfer_make_the_same_moves():
    # every state the transfer reaches completes, so at each prefix of a
    # listed word the rows the walk extends it by toward a listed tableau
    # are the moves of ``_walk_moves``, in order, state and cell alike
    cases = [(shape, None) for m in range(1, 8) for shape in compositions_of(m)]
    cases += [(shape, sigma) for m in range(1, 7) for shape in compositions_of(m)
              for sigma in permutations(range(1, len(shape) + 1))
              if not any(shape[d] < shape[r] and sigma[d] > sigma[r]
                         for r in range(len(shape)) for d in range(r))]
    for shape, sigma in cases:
        p = max(shape) + 1
        extended: dict = {}
        for word, _, _ in _spct_walk(shape, sigma):
            for k, r in enumerate(word):
                rows = extended.setdefault(word[:k], [])
                if not rows or rows[-1] != r:
                    rows.append(r)
        assert extended, (shape, sigma)
        for prefix, rows in extended.items():
            state, kept = packed(shape, sigma, prefix, p)
            want = []
            for r in rows:
                q, grown = kept.index(r), prefix.count(r) + 1
                cell = (2 * q + (grown < shape[r]), grown)
                want.append((packed(shape, sigma, prefix + (r,), p)[0], cell))
            assert _walk_moves(state, p, True) == want, (shape, sigma, prefix)


def test_count_spct_is_at_most_the_factorial():
    # the shapes that sort to lambda hold ell! f^lambda tableaux, and
    # f^lambda <= m!/ell! since the first column's hooks multiply to at
    # least ell!; (1)^m attains m!
    for m in range(1, 9):
        counts = {shape: count_spct(shape) for shape in compositions_of(m)}
        assert max(counts.values()) == factorial(m) == counts[(1,) * m], m


def test_count_spct_and_the_census_agree_on_rectangles_past_listing():
    # n! Cat(n) tableaux, and Cat(n) of each type: rt_to_pct sends them to
    # the reverse tableaux of the rectangle
    for n in range(1, 13):
        counts, _ = two_column_census(n)
        assert count_spct((2,) * n) == sum(counts.values()) == factorial(n) * catalan(n), n
    for n in (10, 12):
        shuffled = list(range(1, n + 1))
        Random(n).shuffle(shuffled)
        for sigma in (tuple(range(1, n + 1)), tuple(range(n, 0, -1)), tuple(shuffled)):
            assert count_spct((2,) * n, sigma=sigma) == catalan(n), (n, sigma)


def test_the_counts_run_one_transfer(monkeypatch):
    def transfer(*args, **kwargs):
        raise AssertionError("the transfer ran")

    monkeypatch.setattr(tableaux, "_transfer", transfer)
    for count in (lambda: count_spct((2, 1, 3)), lambda: count_spct((2, 2), sigma=(2, 1)),
                  lambda: two_column_census(3)):
        with pytest.raises(AssertionError, match="the transfer ran"):
            count()


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


def test_from_json_takes_a_boolean_reverse_marker():
    assert type(from_json({"rows": [[2, 1]], "reverse": False})) is Tableau
    for marker in ("false", 1, None):
        with pytest.raises(ValueError, match=f'"reverse" must be a boolean: {marker!r}'):
            from_json({"rows": [[2, 1]], "reverse": marker})


def test_from_json_takes_integer_shape_entries():
    rows = [[3, 1], [2]]
    assert from_json({"rows": rows, "shape": [2, 1]}).shape == (2, 1)
    # each of these equals [2, 1] under ==
    for shape in ([2.0, 1], [2, True]):
        with pytest.raises(ValueError) as err:
            from_json({"rows": rows, "shape": shape})
        assert str(err.value) == f'"shape" entries must be integers: {shape!r}'
