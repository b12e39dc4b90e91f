"""Composition tableaux and reverse tableaux.

A tableau here is a left-justified filling of a composition diagram, rows
numbered from the top, cells addressed (row, column) 1-indexed.  A filling is
a valid PCT (permuted composition tableau) of type sigma when

  1. the first-column entries are distinct and standardize, read top to
     bottom, to sigma;
  2. every row weakly decreases left to right;
  3. the triple condition holds: for cells a = (i, j), b = (i, j+1) and
     c = (k, j+1) with i < k, a >= c forces b > c;

and every entry is at most the number of cells.  A reverse tableau is a
partition-shaped filling with weakly decreasing rows and strictly decreasing
columns.  Either kind is standard when its entries are exactly {1, ..., n}.

The two constructions ``pct_to_rt`` (sort each column) and ``rt_to_pct``
(place each column back, steered by a type permutation) are mutually inverse
bijections between valid PCTs of type sigma, over all shapes with a given
sorted shape, and reverse tableaux of that partition shape.
``verify_pct_rt(m)`` checks that on every size-m case, on plain rows, for
``tk verify bijections``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import permutations
from math import comb, factorial, prod
from typing import TypeVar

from .core import (
    Composition,
    Perm,
    _packed,
    _places,
    _unpacked,
    check_composition,
    check_permutation,
    composition_size,
    compositions_of,
    partitions_of,
    standardize,
    to_partition,
)

__all__ = [
    "Tableau",
    "ReverseTableau",
    "Violation",
    "ValidationResult",
    "validate_pct",
    "positions",
    "column_word",
    "st_column",
    "st_word",
    "descent_set",
    "descent_quadruple",
    "descent_quadruple_counts",
    "two_column_census",
    "two_column_work",
    "pct_to_rt",
    "rt_to_pct",
    "verify_pct_rt",
    "enumerate_spct",
    "enumerate_spct_sigma",
    "enumerate_srt",
    "count_spct",
    "count_srt",
    "from_json",
]


def _check_rows(rows: tuple[tuple[int, ...], ...]) -> None:
    if not rows:
        raise ValueError("tableau must have at least one row")
    for r, row in enumerate(rows, start=1):
        if not row:
            raise ValueError(f"row {r} is empty")
        for entry in row:
            # exact type test: bool is an int subclass and must not pass
            if type(entry) is not int or entry < 1:
                raise ValueError(
                    f"row {r} has an entry that is not a positive integer: "
                    f"{entry!r}"
                )


_F = TypeVar("_F", bound="_Filling")
Rows = tuple[tuple[int, ...], ...]
# A row word lists, for n, n-1, ..., 1, the row (from 0) holding that entry.
# Rows decrease to the right, so it fixes a standard filling.
Word = tuple[int, ...]


@dataclass(frozen=True)
class _Filling:
    """Rows of positive integers, left-justified; the members both kinds of
    tableau share."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_rows(self.rows)

    @classmethod
    def from_rows(cls: type[_F], rows: Iterable[Iterable[int]]) -> _F:
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def _trusted(cls: type[_F], rows: tuple[tuple[int, ...], ...]) -> _F:
        # rows the library built and knows to be valid: no checks run
        filling = object.__new__(cls)
        object.__setattr__(filling, "rows", rows)
        return filling

    @property
    def shape(self) -> Composition:
        return tuple(map(len, self.rows))

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def entry(self, row: int, col: int) -> int:
        """Entry at 1-indexed (row, col)."""
        return self.rows[row - 1][col - 1]

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}


@dataclass(frozen=True)
class Tableau(_Filling):
    """A filling of a composition diagram; validity is checked separately."""


@dataclass(frozen=True)
class ReverseTableau(_Filling):
    """Partition shape, rows weakly decreasing, columns strictly decreasing.

    Entries are positive and at most the number of cells.  Unlike Tableau,
    the defining conditions are enforced at construction.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        shape = self.shape
        if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
            raise ValueError(f"shape must be a partition: {shape}")
        n = self.size
        for r, row in enumerate(self.rows, start=1):
            if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row {r} does not weakly decrease: {row}")
            if any(x > n for x in row):
                raise ValueError(f"row {r} has an entry exceeding {n}")
        for r in range(1, len(self.rows)):
            upper, lower = self.rows[r - 1], self.rows[r]
            for j in range(len(lower)):
                if upper[j] <= lower[j]:
                    raise ValueError(
                        f"column {j + 1} does not strictly decrease at row {r + 1}"
                    )

    def to_json(self) -> dict:
        return super().to_json() | {"reverse": True}


@dataclass(frozen=True)
class Violation:
    """One broken validity condition, located by its cells (1-indexed)."""

    kind: str  # first-column-repeat | row-increase | triple | entry-range
    cells: tuple[tuple[int, int], ...]
    message: str


@dataclass(frozen=True)
class ValidationResult:
    sigma: Perm | None  # the type, when valid
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_pct(t: Tableau) -> ValidationResult:
    """Check the PCT conditions, reporting every violation with its cells.

    On success the result carries the type: the standardization of the first
    column read top to bottom.  One sweep over the rows finds every
    violation, O(cells log n) plus O(l) per cell that breaks the triple
    condition, l the number of rows.  The violations come in the order the
    conditions are listed: entries past the cell count, first-column
    repeats, row increases, then triples by their rows and column.
    """
    rows, n = t.rows, t.size
    faults = _pct_faults(rows, n)
    if not faults:
        return ValidationResult(standardize([row[0] for row in rows]), ())
    return ValidationResult(None, tuple(_violation(rows, n, key) for key in sorted(faults)))


def _violation(rows: Rows, n: int, key: tuple[str, int, int, int]) -> Violation:
    # the cells and text of a key of ``_pct_faults``: rows i, k, column j
    kind, i, k, j = key
    a = rows[i - 1][j - 1]
    if kind == "entry-range":
        cells = ((i, j),)
        message = f"entry {a} at ({i},{j}) exceeds the cell count {n}"
    elif kind == "first-column-repeat":
        cells = ((k, 1), (i, 1))
        message = f"first column repeats {a} at rows {k} and {i}"
    elif kind == "row-increase":
        cells = ((i, j), (i, j + 1))
        message = f"row {i} increases from column {j} to {j + 1}"
    else:
        c = rows[k - 1][j]
        b = f"={rows[i - 1][j]}" if j < len(rows[i - 1]) else " empty"
        cells = ((i, j), (i, j + 1), (k, j + 1))
        message = (f"cells ({i},{j})={a}, ({i},{j + 1}){b}, ({k},{j + 1})={c}: "
                   f"{a} >= {c} needs a larger entry above")
    return Violation(kind, cells, message)


def _pct_faults(rows: Rows, n: int) -> list:
    # For the columns j, j+1, an earlier row i with a = (i, j) and b = (i,
    # j+1), b = 0 when absent, forbids c = (k, j+1) in [b, a] for every
    # later row k.  So each column pair keeps the union of the earlier rows'
    # intervals [b, a], as sorted disjoint intervals with their starts and
    # ends in two lists, and a row's c is looked up before its own interval
    # joins.  A row's c in the pair j, j+1 is its own b there.  A pair's
    # lists are made when the first row reaches column j.  Each merge or
    # insert is one slice assignment, which shifts the later intervals by
    # one memmove; ``list.insert`` shifts them one at a time, and at 10^5
    # rows that is slower.
    #
    # Returns a key per broken condition, none when the rows are a valid
    # PCT, rows and columns from 1, sorting in the order ``validate_pct``
    # lists them: ("entry-range", r, r, c), ("first-column-repeat", r,
    # first row, 1), ("row-increase", r, r, c) for the cells c, c+1, and
    # ("triple", i, k, j) for a = (i, j) and c = (k, j+1).
    faults: list[tuple[str, int, int, int]] = []
    firsts: dict[int, int] = {}  # each first-column entry, with its row
    pairs: list[tuple[list[int], list[int]]] = []  # the starts and ends of pair j
    k = 0
    scanned = 0  # the last row scanned for entries past n
    for row in rows:
        k += 1
        # a row that weakly decreases starts with its largest entry, so only
        # a row that starts past n, or that increases, can hold entries past n
        a = row[0]
        if firsts.setdefault(a, k) != k:
            faults.append(("first-column-repeat", k, firsts[a], 1))
        if a > n:
            scanned = k
            faults.extend(("entry-range", k, k, c)
                          for c, x in enumerate(row, start=1) if x > n)
        j = 0
        for b in row[1:]:
            if j == len(pairs):
                pairs.append(([], []))
            lows, highs = pairs[j]
            # only the last interval starting at or below b can cover it;
            # past that check, the intervals from lo on end above b
            lo = bisect_right(lows, b)
            if lo and highs[lo - 1] >= b:
                # the earlier rows whose [b, a] holds this row's b
                faults.extend(("triple", i, k, j + 1)
                              for i, above in enumerate(rows[:k - 1], start=1)
                              if len(above) > j and b <= above[j]
                              and (len(above) == j + 1 or above[j + 1] <= b))
                # [b, a] joins the interval that held b, unless the row
                # increases here and [b, a] is empty
                if b <= a:
                    lo -= 1
            # merge [b, a] with the intervals it meets: from lo, those
            # starting at or below a.  An increase (b > a) meets none
            hi = bisect_right(lows, a, lo)
            if lo < hi:
                lows[lo:hi] = (min(b, lows[lo]),)
                highs[lo:hi] = (max(a, highs[hi - 1]),)
            elif b <= a:
                lows[lo:lo] = (b,)
                highs[lo:lo] = (a,)
            else:
                faults.append(("row-increase", k, k, j + 1))
                if scanned != k:
                    scanned = k
                    faults.extend(("entry-range", k, k, c)
                                  for c, x in enumerate(row, start=1) if x > n)
            a = b
            j += 1
        # the last cell a has no b: its interval [0, a] merges with every
        # interval starting at or below a, the first hi
        if j == len(pairs):
            pairs.append(([], []))
        lows, highs = pairs[j]
        hi = bisect_right(lows, a)
        if hi:
            a = max(a, highs[hi - 1])
        lows[:hi] = (0,)
        highs[:hi] = (a,)
    return faults


def positions(t: Tableau | ReverseTableau) -> dict[int, tuple[int, int]]:
    """Map each entry of a standard tableau to its 1-indexed (row, column).

    Raises ValueError when the tableau is not standard.
    """
    pos = {
        x: (r, c)
        for r, row in enumerate(t.rows, start=1)
        for c, x in enumerate(row, start=1)
    }
    # entries are positive, so n distinct ones with maximum n are 1..n
    if len(pos) != t.size or max(pos) != len(pos):
        raise ValueError("tableau is not standard")
    return pos


def column_word(t: Tableau | ReverseTableau, col: int) -> tuple[int, ...]:
    """Column col read top to bottom."""
    # every row reaches column 0 or below, so only col >= 1 is read; past
    # the longest row the column is empty
    if col >= 1:
        word = tuple(row[col - 1] for row in t.rows if len(row) >= col)
        if word:
            return word
    raise ValueError(f"column index out of range: {col}")


def st_column(t: Tableau | ReverseTableau, col: int) -> Perm:
    """Standardization of column col read top to bottom."""
    return standardize(column_word(t, col))


def st_word(t: Tableau | ReverseTableau) -> tuple[Perm, ...]:
    """The standardized column words, first column to last."""
    ncols = max(len(row) for row in t.rows)
    return tuple(st_column(t, j) for j in range(1, ncols + 1))


def descent_set(t: Tableau) -> frozenset[int]:
    """All i with i+1 weakly right of i (column index of i+1 >= that of i)."""
    pos = positions(t)
    return frozenset(
        i for i in range(1, t.size) if pos[i + 1][1] >= pos[i][1]
    )


def descent_quadruple(t: Tableau) -> tuple[int, int, int, int]:
    """Classify first-column descents of a two-column rectangle.

    For each first-column entry i (other than the largest), i+1 sits either
    in the first column (north or south of i) or in the second column
    (northeast or southeast).  Returns the four counts in that order; they
    sum to one less than the number of rows.
    """
    if any(len(row) != 2 for row in t.rows):
        raise ValueError(f"shape must be a two-column rectangle: {t.shape}")
    return _quadruple(*_cells(t))


def descent_quadruple_counts(n: int) -> Counter[tuple[int, int, int, int]]:
    """How many standard tableaux of the two-column rectangle with n rows
    have each ``descent_quadruple``, counted by the transfer of
    ``two_column_census`` without listing the tableaux."""
    return two_column_census(n)[0]


def two_column_census(n: int) -> tuple[Counter[tuple[int, int, int, int]], int]:
    """The ``descent_quadruple`` distribution over the standard tableaux of
    the two-column rectangle with n rows, and how many of them are sources
    (``tabkit.hecke.is_source``): one per class, so (n+1)^(n-1).

    The transfer that ``count_spct`` runs counts both without listing a
    tableau.  Its state is the rows not yet full, each empty or holding one
    entry, and here the cell of the last entry placed.  The
    quadruple and the source rule read only the cells of i+1 and i, which
    is one step of the transfer: the step adds the quadruple's unit to the
    counts a state carries, and lets the walks to sources through or not.
    There are at most 4n^2 such pairs of cells, and the transfer works out
    each once per call.  Its states and the quadruples they carry are
    bounded by ``two_column_work(n)``.

    >>> counts, sources = two_column_census(3)
    >>> sources
    16
    >>> for quadruple, ways in sorted(counts.items()):
    ...     print(quadruple, ways)
    (0, 0, 0, 2) 1
    (0, 0, 1, 1) 4
    (0, 0, 2, 0) 1
    (0, 1, 0, 1) 4
    (0, 1, 1, 0) 5
    (0, 2, 0, 0) 1
    (1, 0, 0, 1) 5
    (1, 0, 1, 0) 4
    (1, 1, 0, 0) 4
    (2, 0, 0, 0) 1
    """
    if n < 1:
        raise ValueError(f"need at least one row: {n}")
    places = _places(n)

    def step(last: tuple[int, int] | None, cell: tuple[int, int]) -> tuple[int, bool]:
        # the packed quadruple unit of placing i at the cell after i+1 at
        # last, and whether a source may do so.  The trap: the cell is
        # compared in last's numbering, before the move; in the numbering
        # after it every count is 0
        if last is None:
            return 0, True
        rows, cols = (last[0], cell[0] | 1), (last[1], cell[1])
        return _packed(_quadruple(rows, cols), places), _is_source(rows, cols)

    counts, sources = _transfer((2,) * n, step=step)
    # every walk ends with the last row full and entry 1 in its column 2
    return _unpacked(counts[((), (0, 2))], n), sources


def two_column_work(n: int) -> int:
    """A bound on the work of ``two_column_census(n)``, for a cap to charge
    before any of it: the states of its transfer times the quadruples each
    carries.

    With k rows not yet full, each empty or holding one entry, the
    transfer has 2^k choices of their lengths and 2k + 1 cells of the last
    entry (a row, or a gap between rows), summed over k <= n.  The entries
    placed fix the sum of every quadruple a state carries, at most n - 1,
    so it carries at most C(n+2, 3) of them.  The bound passes 2^n; at
    n = 9 it is 2,872,815, and the transfer carries 57,087 in all.
    """
    return ((2 * n - 1) * 2 ** (n + 1) + 3) * comb(n + 2, 3)


def _cells(t: Tableau | ReverseTableau) -> tuple[list[int], list[int]]:
    # the rows and columns of n, n-1, ..., 1, the order of the walk's word
    pos = positions(t)
    cells = [pos[v] for v in range(len(pos), 0, -1)]
    return [r for r, _ in cells], [c for _, c in cells]


def _columns(word: Word, ell: int) -> list[int]:
    # the column of each letter of a row word: every row fills left to
    # right, and the word lists its entries largest first
    filled = [0] * ell
    cols = []
    for r in word:
        filled[r] += 1
        cols.append(filled[r])
    return cols


def _quadruple(rows: Sequence[int], cols: Sequence[int]) -> tuple[int, int, int, int]:
    # rows[p], cols[p]: the cell of n - p, so entry i sits at p and i+1 just
    # before it; i+1 counts as south of i unless strictly north
    counts = [0, 0, 0, 0]  # north, south, northeast, southeast
    for p in range(1, len(rows)):
        if cols[p] == 1:
            counts[2 * (cols[p - 1] != 1) + (rows[p - 1] >= rows[p])] += 1
    return (counts[0], counts[1], counts[2], counts[3])


def _is_source(rows: Sequence[int], cols: Sequence[int]) -> bool:
    # rows[p], cols[p]: the cell of n - p, so entry i sits at p and i+1 just
    # before it; a non-descent i needs i+1 immediately to its left
    return all(
        c2 >= c1 or (r2 == r1 and c2 == c1 - 1)
        for r2, c2, r1, c1 in zip(rows, cols, rows[1:], cols[1:])
    )


def _rows(word: Word) -> Rows:
    # the filling of a row word
    rows: list[list[int]] = [[] for _ in range(max(word) + 1)]
    for v, r in zip(range(len(word), 0, -1), word):
        rows[r].append(v)
    return tuple(map(tuple, rows))


def pct_to_rt(t: Tableau) -> ReverseTableau:
    """Sort each column into the partition shape, top to bottom decreasing.

    The input is validated by the one sweep of ``validate_pct``, and a
    ValueError names its first violation and counts the rest; the result is
    then a reverse tableau by the bijection theorem (see the module
    docstring) and is not checked again.
    """
    faults = _pct_faults(t.rows, t.size)
    if faults:
        more = f" (and {len(faults) - 1} more)" if len(faults) > 1 else ""
        first = _violation(t.rows, t.size, min(faults))
        raise ValueError(f"not a valid PCT: {first.message}{more}")
    cols: list[list[int]] = [[] for _ in range(max(t.shape))]
    for row in t.rows:
        for col, x in zip(cols, row):
            col.append(x)
    # each column sorted largest first; the columns shorten to the right, so
    # the i-th entry of each column long enough makes up row i
    rows: list[list[int]] = [[] for _ in t.rows]
    for col in cols:
        col.sort(reverse=True)
        for row, x in zip(rows, col):
            row.append(x)
    return ReverseTableau._trusted(tuple(map(tuple, rows)))


def _check_type(sigma: Sequence[int], ell: int) -> Perm:
    sigma = check_permutation(sigma)
    if len(sigma) != ell:
        raise ValueError(f"type length {len(sigma)} does not match {ell} rows")
    return sigma


def rt_to_pct(T: ReverseTableau, sigma: Sequence[int]) -> Tableau:
    """Rebuild the tableau of type sigma whose sorted columns give T.

    The first column of T is distributed over the rows so that it
    standardizes to sigma; each later column's entries are then placed in
    decreasing order, each into the smallest-index row that has exactly the
    preceding columns filled and keeps the row weakly decreasing.  Those
    rows only gain members as the entries fall, so they wait in a heap of
    row indices: O(n log n) in all.
    """
    sigma = _check_type(sigma, len(T.rows))
    rows = _pct_rows(T.rows, sigma, _first_column(T.rows), _row_order(sigma))
    return Tableau._trusted(tuple(map(tuple, rows)))


def _first_column(rows: Rows) -> list[int]:
    # the first column of a reverse tableau read upward: its entries sorted
    return [row[0] for row in reversed(rows)]


def _row_order(sigma: Perm) -> list[int]:
    # the row indices (from 0), largest sigma first
    return sorted(range(len(sigma)), key=sigma.__getitem__, reverse=True)


def _pct_rows(rows: Rows, sigma: Perm, first: list[int], order: list[int]
              ) -> list[list[int]]:
    # the rows of ``rt_to_pct(T, sigma)``, from T's rows, a checked sigma,
    # ``_first_column`` of T and ``_row_order`` of sigma: the last two depend
    # on T alone and on sigma alone, so a caller running many cases computes
    # each once.  The columns of T strictly decrease downward: read upward,
    # the first lists its entries sorted, and each later one lists them
    # largest first
    built: list[list[int]] = [[first[s - 1]] for s in sigma]
    # the rows that took an entry of the column last placed, largest first
    filled = order
    for k in range(1, len(rows[0])):
        waiting, filled = filled, []
        heap: list[int] = []  # the rows open to the next entry
        i = 0
        for row in rows:
            if len(row) <= k:
                break
            v = row[k]
            while i < len(waiting) and built[waiting[i]][-1] >= v:
                heappush(heap, waiting[i])
                i += 1
            if not heap:  # impossible for a reverse tableau input: signals a bug
                raise AssertionError(
                    f"no row accepts {v} in column {k + 1}; input corrupt"
                )
            r = heappop(heap)
            built[r].append(v)
            filled.append(r)
    return built


def verify_pct_rt(m: int) -> tuple[dict, str | None]:
    """The ``pct-rt`` row of ``tk verify bijections``, and the first failure's
    message or None: ``rt_to_pct`` on every reverse tableau T of size m under
    every type sigma of its rows.  Each image must be a valid PCT that
    ``pct_to_rt`` and its first column take back to (T, sigma), so the images
    are distinct standard PCTs of size m; as many as there are, they are all
    of them."""
    cases = 0
    bad = None
    for lam in partitions_of(m):
        types = [(sigma, _row_order(sigma))
                 for sigma in permutations(range(1, len(lam) + 1))]
        for T in enumerate_srt(lam):
            checked, bad = _types_moved(T, types)
            cases += checked
            if bad is not None:
                return {"check": "pct-rt", "size": m, "cases": cases, "pass": False}, bad
    spct = sum(count_spct(alpha) for alpha in compositions_of(m))
    if cases != spct:
        bad = f"size {m}: {cases} (T, sigma) cases but {spct} standard PCTs"
    return {"check": "pct-rt", "size": m, "cases": cases, "pass": bad is None}, bad


def _types_moved(T: ReverseTableau, types: list[tuple[Perm, list[int]]]
                 ) -> tuple[int, str | None]:
    # rt_to_pct(T, sigma), pct_to_rt and st_column fused on plain rows, for
    # each type sigma of T's rows with its ``_row_order``: the image must be
    # a valid PCT of T's size whose columns hold T's entries, which
    # pct_to_rt sorts back into T, and whose first column standardizes to
    # sigma.  permutations() made sigma, so it is not checked again.
    # Returns the cases run, up to the first failure, and its message.
    m = T.size
    first = _first_column(T.rows)
    # T's entries past the first column, each with its column
    later = {x: j for row in T.rows for j, x in enumerate(row) if j}
    for case, (sigma, order) in enumerate(types, start=1):
        rows = _pct_rows(T.rows, sigma, first, order)
        if _pct_faults(rows, m):
            return case, (f"rt_to_pct of {T.rows} under type {sigma} is not a valid "
                          f"PCT: {tuple(map(tuple, rows))}")
        if _columns_moved(rows, sigma, first, later):
            return case, (f"reverse-tableau/tableau round trip moved {T.rows} "
                          f"under type {sigma}")
    return len(types), None


def _columns_moved(rows: list[list[int]], sigma: Perm, first: list[int],
                   later: dict[int, int]) -> bool:
    # True unless the image's columns are T's as multisets and its first
    # column standardizes to sigma, decided in one pass: row i starts with
    # the sigma_i-th smallest entry of T's first column, each later entry is
    # one of ``later`` in its own column, taken once, and none is left over
    if len(rows) != len(sigma):
        return True
    left = later.copy()
    for row, s in zip(rows, sigma):
        if row[0] != first[s - 1]:
            return True
        for j in range(1, len(row)):
            if left.pop(row[j], 0) != j:
                return True
    return bool(left)


def _nonempty(shape: Sequence[int]) -> Composition:
    shape = check_composition(shape)
    if not shape:
        raise ValueError("shape must be nonempty")
    return shape


def enumerate_spct(shape: Sequence[int]) -> Iterator[Tableau]:
    """All standard PCTs of the given shape, each exactly once.

    Entries n, n-1, ..., 1 are placed into the leftmost empty cell of some
    row, trying rows top to bottom (fixing the output order).  Placing into
    column c >= 2 of row r is illegal exactly when some earlier row is
    currently filled to length c-1: that row's cell in column c is either
    absent or destined for a smaller entry, and either way the new entry
    would complete a forbidden triple with the earlier row's column c-1.
    """
    return (Tableau._trusted(tuple(map(tuple, rows)))
            for _, rows in _spct_walk(_nonempty(shape)))


def _spct_walk(shape: Composition, sigma: Perm | None = None) -> Iterator[tuple[Word, list]]:
    # one backtracking loop: ``chosen`` holds the rows (from 0) of n, n-1,
    # ..., v+1, and ``r`` is the first row still to try for the entry v.
    # It yields each standard PCT as its row word and its rows, the walk's
    # own lists, valid until the next item.  Its move rule is the one of
    # ``_walk_moves``: column c + 1 opens only in the first row of length
    # c, and, as rows start in decreasing type, an empty row r only when
    # sigma_r is the number of empty rows.
    ell = len(shape)
    rows: list[list[int]] = [[] for _ in range(ell)]
    lengths = [0] * ell
    chosen: list[int] = []
    v = composition_size(shape)
    r = 0
    while True:
        if v == 0:
            yield tuple(chosen), rows
            r = ell
        while r < ell:
            c = lengths[r]
            if c:  # no earlier row of length c: c is first found at r
                if c < shape[r] and lengths.index(c) == r:
                    break
            elif sigma is None or sigma[r] == lengths.count(0):
                break
            r += 1
        if r < ell:
            rows[r].append(v)
            lengths[r] = c + 1
            chosen.append(r)
            v -= 1
            r = 0
        elif chosen:
            r = chosen.pop()
            rows[r].pop()
            lengths[r] -= 1
            v += 1
            r += 1
        else:
            return


def enumerate_spct_sigma(
    shape: Sequence[int], sigma: Sequence[int]
) -> Iterator[Tableau]:
    """All standard PCTs of the given shape and type, in the order of
    ``enumerate_spct``, whose walk the type prunes: first-column entries
    arrive largest first, so the type fixes the order rows start in."""
    shape = _nonempty(shape)
    return (Tableau._trusted(tuple(map(tuple, rows)))
            for _, rows in _spct_walk(shape, _check_type(sigma, len(shape))))


def count_spct(
    shape: Sequence[int], limit: int | None = None, sigma: Sequence[int] | None = None
) -> int:
    """How many standard PCTs ``enumerate_spct`` lists for the shape, or
    ``enumerate_spct_sigma`` for the shape and the type sigma, counted
    without listing them: the walk's moves depend only on its row lengths,
    so one transfer runs over those.  It drops a row once it is full: a
    full row d could block only a later row r of larger part, at length
    a_d, and the stuck test below prunes every such r as d fills.

    With a limit, the count stops once it passes the limit and returns a
    number above it.  Each prefix it counts completes to a tableau, so a
    partial count is a lower bound: it keeps only row lengths the walk can
    complete.  Lengths c of rows with parts a are stuck exactly when a row d
    above a row r has max(c_r, 1) <= c_d and a_d < a_r, as r can never pass
    d's length.  Otherwise filling one row at a time completes them: of the
    rows not yet full, the topmost longest one, or one of largest part when
    they are all empty.

    Under a type, an empty row r starts only when sigma_r is the number of
    empty rows, as in the walk: first-column entries arrive largest first,
    so rows start in decreasing sigma.  A row d above r with a_d < a_r and
    sigma_d > sigma_r then starts first and strands r, so the count is 0.
    Past that check, completion under a type rests on an exhaustive
    comparison with the walk on every composition of size at most 7 and
    every type.

    >>> count_spct((2, 2, 2))
    30
    >>> count_spct((2, 2, 2), sigma=(3, 2, 1))
    5
    """
    shape = _nonempty(shape)
    if sigma is not None:
        sigma = _check_type(sigma, len(shape))
        if any(shape[d] < shape[r] and sigma[d] > sigma[r]
               for r in range(len(shape)) for d in range(r)):
            return 0
    return _transfer(shape, sigma, limit=limit)[1]


def _transfer(shape: Composition, sigma: Perm | None = None, step: Callable | None = None,
              limit: int | None = None) -> tuple[dict, int]:
    # The walk of ``_spct_walk`` as a transfer, one level per entry n, ...,
    # 1, by its move rule, stated once in ``_walk_moves``.  A state is the
    # rows not yet full, in row order, each packed as there; a full row d
    # is dropped, since it could block a later row r only at length a_d
    # with a_r > a_d, and the stuck test pruned every such r, then at
    # max(c_r, 1) <= a_d, as d filled.  Every state carries its plain
    # ways, the count.  With a step, a state also keeps the cell of the
    # entry placed last and carries keyed ways too:
    # ``step(last, cell)`` gives the key a move to the cell adds to them,
    # and whether plain ways may take it.  Each step is worked out once per
    # call, as is each list of moves: with a step, states of different last
    # cells share their rows, so the lists are kept by rows; without one,
    # the rows are the state, and each is reached in one level only.
    # Returns the keyed ways of the last level by state and its plain ways;
    # once the plain ways moved in a level pass a limit, no keyed ways and
    # those plain ways.
    p = max(shape) + 1
    rows = tuple(a - s * p for a, s in zip(shape, sigma)) if sigma else shape
    start = (rows, None) if step else rows
    keyed = {start: {0: 1}}
    plain = {start: 1}
    moves: dict = {}
    steps: dict = {}
    for _ in range(composition_size(shape)):
        reached_keyed: dict = {}
        reached: dict = {}
        counted = 0
        # counts: a state's keyed ways with a step, its plain ways without
        for state, counts in (keyed if step else plain).items():
            rows, last = state if step else (state, None)
            ways = plain.get(state, 0) if step else counts
            state_moves = moves.get(rows) if step else _walk_moves(rows, p, False)
            if state_moves is None:
                state_moves = moves[rows] = _walk_moves(rows, p, True)
            for after in state_moves:
                if step:
                    move = (last, after[1])
                    hit = steps.get(move)
                    if hit is None:
                        hit = steps[move] = step(*move)
                    key, free = hit
                    target = reached_keyed.get(after)
                    if target is None:
                        reached_keyed[after] = {k + key: w for k, w in counts.items()}
                    else:
                        for k, w in counts.items():
                            k += key
                            target[k] = target.get(k, 0) + w
                    if not (free and ways):
                        continue
                reached[after] = reached.get(after, 0) + ways
                counted += ways
                if limit is not None and counted > limit:
                    return {}, counted
        keyed, plain = reached_keyed, reached
    return keyed, sum(plain.values())


def _walk_moves(rows: tuple[int, ...], p: int, cells: bool) -> list:
    # The states the moves of ``_transfer`` reach from the rows not yet
    # full, with the new cell when cells is set: the q-th row not full
    # stands as row 2q + 1, and a full row just before it as row 2q, so
    # rows compare as in the tableau, and a cell's row before its move is
    # its row after it with the last bit set.  A row of part a and length
    # c packs as c * p + a, for p past every part, but an empty row under a
    # type as a - sigma_r * p, of packed length -sigma_r.  Rows start in
    # decreasing type, so the u empty rows hold sigma_r = 1, ..., u, and -u
    # is the least length.
    split = [divmod(code, p) for code in rows]  # (length, part) of each row
    seen = set()  # the positive lengths of the rows before q
    found = []
    for q, (c, a) in enumerate(split):
        # the move rule of ``_spct_walk``: column c + 1 opens only in the
        # first row of length c, and an empty row under a type only when
        # sigma_r is the number of empty rows, -c == u
        if c > 0:
            if c in seen:
                continue
            seen.add(c)
        elif c < 0 and c != min(split)[0]:
            continue
        grown = c + 1 if c > 0 else 1
        # the stuck test: a later row of larger part could never pass
        # grown, as max(later, 1) <= grown (grown is at least 1); no part
        # passes p - 1
        for later, b in split[q + 1 :] if a < p - 1 else ():
            if b > a and later <= grown:
                break
        else:  # not stuck
            if grown == a:
                after, cell = rows[:q] + rows[q + 1 :], (2 * q, a)
            else:
                after, cell = rows[:q] + (grown * p + a,) + rows[q + 1 :], (2 * q + 1, grown)
            found.append((after, cell) if cells else after)
    return found


def enumerate_srt(partition: Sequence[int]) -> Iterator[ReverseTableau]:
    """All standard reverse tableaux of the given partition shape: the
    decreasing-type slice of ``enumerate_spct``, in its order.

    If column j of a standard PCT decreases, a = T(i, j) > T(k, j) >= c =
    T(k, j+1) for rows i < k, so the triple condition forces b = T(i, j+1)
    > c; conversely decreasing columns meet the triple condition.
    """
    lam = _partition(partition)
    return (ReverseTableau._trusted(tuple(map(tuple, rows)))
            for _, rows in _spct_walk(lam, tuple(range(len(lam), 0, -1))))


def count_srt(partition: Sequence[int]) -> int:
    """How many standard reverse tableaux ``enumerate_srt`` lists for the
    partition, by the hook-length formula (Frame, Robinson and Thrall,
    1954): complementing the entries, n + 1 - x, makes them the standard
    Young tableaux of the shape.

    >>> count_srt((3, 2))
    5
    """
    lam = _partition(partition)
    # the height of each column, filled in from the shortest row up
    heights: list[int] = []
    for i in range(len(lam), 0, -1):
        heights += [i] * (lam[i - 1] - len(heights))
    # the cell (i, j), the cells right of it and the cells below it
    hooks = [part - j + heights[j] - i - 1 for i, part in enumerate(lam) for j in range(part)]
    return factorial(len(hooks)) // _product(hooks)


def _product(factors: list[int]) -> int:
    """The product of ``factors``, halves first: one running product of many
    factors multiplies an ever longer bigint, which is quadratic."""
    if len(factors) <= 64:
        return prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def _partition(shape: Sequence[int]) -> Composition:
    lam = _nonempty(shape)
    if lam != to_partition(lam):
        raise ValueError(f"shape must be a partition: {lam}")
    return lam


def from_json(data: dict) -> Tableau | ReverseTableau:
    """Load a tableau from its JSON form; a "reverse" marker picks the kind."""
    if not isinstance(data, dict) or "rows" not in data:
        raise ValueError('expected an object with a "rows" key')
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError('"rows" must be a list of lists')
    # exact type tests: "false" is truthy, 2.0 == 2 and True == 1
    reverse = data.get("reverse", False)
    if type(reverse) is not bool:
        raise ValueError(f'"reverse" must be a boolean: {reverse!r}')
    t = (ReverseTableau if reverse else Tableau).from_rows(rows)
    shape = data.get("shape", t.shape)
    if not isinstance(shape, (list, tuple)) or tuple(shape) != t.shape:
        raise ValueError(
            f"declared shape {shape} does not match rows {list(t.shape)}"
        )
    if any(type(part) is not int for part in shape):
        raise ValueError(f'"shape" entries must be integers: {shape!r}')
    return t
