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
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from math import comb
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
    standardize,
    to_partition,
)

__all__ = [
    "Tableau",
    "ReverseTableau",
    "Violation",
    "ValidationResult",
    "validate_pct",
    "is_standard",
    "positions",
    "column_word",
    "st_column",
    "st_word",
    "descent_set",
    "descent_quadruple",
    "descent_quadruple_counts",
    "two_column_census",
    "pct_to_rt",
    "rt_to_pct",
    "enumerate_spct",
    "enumerate_spct_sigma",
    "enumerate_srt",
    "count_spct",
    "from_json",
    "render",
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
    column read top to bottom.
    """
    violations: list[Violation] = []
    n = t.size

    for r, row in enumerate(t.rows, start=1):
        for c, x in enumerate(row, start=1):
            if x > n:
                violations.append(
                    Violation(
                        "entry-range",
                        ((r, c),),
                        f"entry {x} at ({r},{c}) exceeds the cell count {n}",
                    )
                )

    first_col = [row[0] for row in t.rows]
    seen: dict[int, int] = {}
    for r, x in enumerate(first_col, start=1):
        if x in seen:
            violations.append(
                Violation(
                    "first-column-repeat",
                    ((seen[x], 1), (r, 1)),
                    f"first column repeats {x} at rows {seen[x]} and {r}",
                )
            )
        else:
            seen[x] = r

    for r, row in enumerate(t.rows, start=1):
        for c in range(1, len(row)):
            if row[c - 1] < row[c]:
                violations.append(
                    Violation(
                        "row-increase",
                        ((r, c), (r, c + 1)),
                        f"row {r} increases from column {c} to {c + 1}",
                    )
                )

    # triple condition, every configuration by triple loop; an absent cell
    # (i, j+1) counts as zero, so a >= c with no b at all is a violation
    ell = len(t.rows)
    for i in range(ell):
        for k in range(i + 1, ell):
            for j in range(min(len(t.rows[i]), len(t.rows[k]) - 1)):
                a = t.rows[i][j]
                b = t.rows[i][j + 1] if j + 1 < len(t.rows[i]) else None
                c = t.rows[k][j + 1]
                if a >= c and (b is None or b <= c):
                    detail = (
                        f"({i + 1},{j + 2})={b}" if b is not None
                        else f"({i + 1},{j + 2}) empty"
                    )
                    violations.append(
                        Violation(
                            "triple",
                            ((i + 1, j + 1), (i + 1, j + 2), (k + 1, j + 2)),
                            f"cells ({i + 1},{j + 1})={a}, {detail}, "
                            f"({k + 1},{j + 2})={c}: {a} >= {c} needs a larger "
                            "entry above",
                        )
                    )

    sigma = None
    if not violations:
        sigma = standardize(first_col)
    return ValidationResult(sigma, tuple(violations))


def is_standard(t: Tableau | ReverseTableau) -> bool:
    """True iff the entries are exactly 1 through the number of cells."""
    entries = sorted(x for row in t.rows for x in row)
    return entries == list(range(1, t.size + 1))


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
    if not 1 <= col <= max(len(row) for row in t.rows):
        raise ValueError(f"column index out of range: {col}")
    return tuple(row[col - 1] for row in t.rows if len(row) >= col)


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

    One transfer over the walk that ``enumerate_spct`` runs counts both
    without listing a tableau.  Column 1 is open in every row and column 2
    only in the first row whose column 1 alone is filled, so a full row
    never matters again.  A state is the rows not yet full, each marked 1
    when its column 1 is filled, in row order, and the cell of the last
    entry placed.  The quadruple and the source rule read only the cells of
    i+1 and i, which is one step of the transfer.  Its states and the
    quadruples they carry are bounded by ``_two_column_work(n)``.
    """
    if n < 1:
        raise ValueError(f"need at least one row: {n}")
    places = _places(n)
    # the cell of the last entry as (row, column): the q-th row not yet full
    # stands as row 2q + 1, and a full row that sat just before it as row
    # 2q, so rows compare as they do in the tableau
    start = ((0,) * n, None)
    level: dict = {start: Counter({0: 1})}
    sources: dict = {start: 1}
    for _ in range(2 * n):
        reached: dict = {}
        reached_sources: dict = {}
        for (marks, last), counts in level.items():
            walks_to_sources = sources.get((marks, last), 0)
            moves = [(q, 1) for q, mark in enumerate(marks) if not mark]
            if 1 in marks:
                moves.append((marks.index(1), 2))
            for q, col in moves:
                if col == 1:
                    state = (marks[:q] + (1,) + marks[q + 1 :], (2 * q + 1, 1))
                else:
                    state = (marks[:q] + marks[q + 1 :], (2 * q, 2))
                step, source = 0, True
                if last is not None:
                    rows, cols = (last[0], 2 * q + 1), (last[1], col)
                    step = _packed(_quadruple(rows, cols), places)
                    source = _is_source(rows, cols)
                target = reached.setdefault(state, Counter())
                for key, ways in counts.items():
                    target[key + step] += ways
                if source and walks_to_sources:
                    reached_sources[state] = (
                        reached_sources.get(state, 0) + walks_to_sources
                    )
        level, sources = reached, reached_sources
    # every walk ends with the last row full and entry 1 in its column 2
    end = ((), (0, 2))
    return _unpacked(level[end], n), sources.get(end, 0)


def _two_column_work(n: int) -> int:
    # a bound on the work of ``two_column_census(n)``, for a cap to charge
    # before any of it: with k rows not yet full, the transfer has 2^k
    # markings and 2k + 1 cells of the last entry (a row, or a gap between
    # rows), summed over k <= n.  The entries placed fix the sum of every
    # quadruple a state carries, at most n - 1, so it carries at most
    # C(n+2, 3) of them
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

    The input is validated; the result is then a reverse tableau by the
    bijection theorem (see the module docstring) and is not checked again.
    """
    result = validate_pct(t)
    if not result.valid:
        raise ValueError(
            "not a valid PCT: " + "; ".join(v.message for v in result.violations)
        )
    lam = to_partition(t.shape)
    ncols = lam[0]
    cols = [
        sorted((row[j] for row in t.rows if len(row) > j), reverse=True)
        for j in range(ncols)
    ]
    rows = tuple(
        tuple(cols[j][i] for j in range(lam[i])) for i in range(len(lam))
    )
    return ReverseTableau._trusted(rows)


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
    preceding columns filled and keeps the row weakly decreasing.
    """
    sigma = _check_type(sigma, len(T.rows))
    first = sorted(row[0] for row in T.rows)
    built: list[list[int]] = [[first[sigma[r] - 1]] for r in range(len(T.rows))]
    ncols = len(T.rows[0])
    for k in range(1, ncols):
        entries = sorted((row[k] for row in T.rows if len(row) > k), reverse=True)
        for v in entries:
            for row in built:
                if len(row) == k and row[-1] >= v:
                    row.append(v)
                    break
            else:  # impossible for a reverse tableau input: signals a bug
                raise AssertionError(
                    f"no row accepts {v} in column {k + 1}; input corrupt"
                )
    return Tableau._trusted(tuple(map(tuple, built)))


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
    return _spct_walk(_nonempty(shape))


def _spct_walk(
    shape: Composition, sigma: Perm | None = None, kind: type[_F] | None = Tableau
) -> Iterator:
    # one backtracking loop: ``chosen`` holds the rows (from 0) of n, n-1,
    # ..., v+1, and ``r`` is the first row still to try for the entry v.
    # It yields each standard PCT as a ``kind``, or with kind None as its
    # row word, tuple(chosen), and its rows.  Under a type sigma, row r
    # starts only after row after[r], of type value sigma[r] + 1 (a fixed 1
    # at lengths[ell] stands for it when there is none).
    ell = len(shape)
    rows: list[list[int]] = [[] for _ in range(ell)]
    lengths = [0] * ell + [1]
    after = _start_order(sigma, ell)
    chosen: list[int] = []
    v = composition_size(shape)
    r = 0
    while True:
        if v == 0:
            if kind is None:
                yield tuple(chosen), tuple(map(tuple, rows))
            else:
                yield kind._trusted(tuple(map(tuple, rows)))
            r = ell
        while r < ell:
            c = lengths[r]
            if c:  # no earlier row of length c: c is first found at r
                if c < shape[r] and lengths.index(c) == r:
                    break
            elif lengths[after[r]]:
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


def _start_order(sigma: Perm | None, ell: int) -> list[int]:
    # for each row, the row that must start before it: the row of type
    # value sigma[r] + 1, or ell for none (every row, with no type)
    row_of = {s: r for r, s in enumerate(sigma or ())}
    return [row_of.get(s + 1, ell) for s in sigma] if sigma else [ell] * ell


def enumerate_spct_sigma(
    shape: Sequence[int], sigma: Sequence[int]
) -> Iterator[Tableau]:
    """All standard PCTs of the given shape and type, in the order of
    ``enumerate_spct``, whose walk the type prunes: first-column entries
    arrive largest first, so the type fixes the order rows start in."""
    shape = _nonempty(shape)
    return _spct_walk(shape, _check_type(sigma, len(shape)))


def count_spct(
    shape: Sequence[int], limit: int | None = None, sigma: Sequence[int] | None = None
) -> int:
    """How many standard PCTs ``enumerate_spct`` lists for the shape, or
    ``enumerate_spct_sigma`` for the shape and the type sigma, counted
    without listing them: the walk's moves depend only on its row lengths,
    so the count runs over those.

    With a limit, the count stops once it passes the limit and returns a
    number above it.  Each prefix it counts completes to a tableau, so a
    partial count is a lower bound: it keeps only row lengths the walk can
    complete.  Lengths c of rows with parts a are stuck exactly when a row d
    above a row r has max(c_r, 1) <= c_d and a_d < a_r, as r can never pass
    d's length.  Otherwise filling one row at a time completes them: of the
    rows not yet full, the topmost longest one, or one of largest part when
    they are all empty.

    Under a type, row r starts only once the row of type value sigma_r + 1
    has, as in the walk.  A row d above r with a_d < a_r and sigma_d >
    sigma_r then starts first and strands r, so the count is 0.  Past that
    check, completion under a type rests on an exhaustive comparison with
    the walk on every composition of size at most 7 and every type.

    >>> count_spct((2, 2, 2))
    30
    >>> count_spct((2, 2, 2), sigma=(3, 2, 1))
    5
    """
    shape = _nonempty(shape)
    ell = len(shape)
    if sigma is not None:
        sigma = _check_type(sigma, ell)
        if any(shape[d] < shape[r] and sigma[d] > sigma[r]
               for r in range(ell) for d in range(r)):
            return 0
    after = _start_order(sigma, ell)
    # a row can strand a later row only when a later part is larger
    taller_later = [max(shape[r + 1 :], default=0) > shape[r] for r in range(ell)]
    # as in the walk, a fixed 1 after the rows stands for "no row to wait on"
    level = {(0,) * ell + (1,): 1}
    for _ in range(composition_size(shape)):
        reached: dict[tuple[int, ...], int] = {}
        counted = 0
        for lengths, ways in level.items():
            for r in range(ell):
                # the test of ``_spct_walk``: column 1 opens once row after[r]
                # has started, column c + 1 only in the first row of length c
                c = lengths[r]
                if not (c < shape[r] and lengths.index(c) == r if c else lengths[after[r]]):
                    continue
                if taller_later[r] and any(
                    max(lengths[k], 1) <= c + 1 and shape[k] > shape[r]
                    for k in range(r + 1, ell)
                ):
                    continue
                grown = lengths[:r] + (c + 1,) + lengths[r + 1 :]
                reached[grown] = reached.get(grown, 0) + ways
                counted += ways
                if limit is not None and counted > limit:
                    return counted
        level = reached
    return sum(level.values())


def enumerate_srt(partition: Sequence[int]) -> Iterator[ReverseTableau]:
    """All standard reverse tableaux of the given partition shape: the
    decreasing-type slice of ``enumerate_spct``, in its order.

    If column j of a standard PCT decreases, a = T(i, j) > T(k, j) >= c =
    T(k, j+1) for rows i < k, so the triple condition forces b = T(i, j+1)
    > c; conversely decreasing columns meet the triple condition.
    """
    lam = _partition(partition)
    return _spct_walk(lam, tuple(range(len(lam), 0, -1)), ReverseTableau)


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
    cls = ReverseTableau if data.get("reverse") else Tableau
    t = cls.from_rows(rows)
    shape = data.get("shape", t.shape)
    if not isinstance(shape, (list, tuple)) or tuple(shape) != t.shape:
        raise ValueError(
            f"declared shape {shape} does not match rows {list(t.shape)}"
        )
    return t


def render(t: Tableau | ReverseTableau) -> str:
    """Left-justified text diagram, one line per row."""
    width = max(len(str(x)) for row in t.rows for x in row)
    return "\n".join(
        " ".join(str(x).rjust(width) for x in row) for row in t.rows
    )
