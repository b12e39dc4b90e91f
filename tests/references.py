"""Slow, direct references that the tests check the library against."""

from collections.abc import Sequence

from tabkit.hecke import DescentClass, _classify, pi
from tabkit.tableaux import ReverseTableau, Tableau, positions


def is_standard(t: Tableau | ReverseTableau) -> bool:
    """True iff the entries are exactly 1 through the number of cells."""
    entries = sorted(x for row in t.rows for x in row)
    return entries == list(range(1, t.size + 1))


def apply_word(t: Tableau, word: Sequence[int]) -> Tableau | None:
    """Apply operators right to left, None standing for the absorbing zero."""
    state: Tableau | None = t
    for i in reversed(word):
        if state is None:
            return None
        result = pi(state, i)
        state = result.tableau
    return state


def is_sink(t: Tableau) -> bool:
    """Every descent is attacking."""
    pos = positions(t)
    return all(
        _classify(*pos[i], *pos[i + 1]) is not DescentClass.NONATTACKING
        for i in range(1, t.size)
    )
