"""Dyck paths, labeled Dyck paths, and their two-column tableau bijection.

A Dyck path is a balanced sequence of up- and down-steps with every prefix
having at least as many ups as downs.  A labeled path carries distinct
positive labels on its down-steps; a path of semi-length n is canonical when
those labels are exactly 1..n (factors of a longer path keep their original
labels, so they are valid paths without being canonical).

Up-step labels are not part of the steps.  They follow from the labeling
rule: scanning up-steps right to left, each receives the smallest down-step
label occurring later in the path that no later up-step has already taken.
``up_step_labels`` applies it once per path object and keeps the result on
the path.  The fully labeled word lists tokens like ``U7`` and ``D3`` left
to right.

A canonical labeled path corresponds to a standard tableau with n rows of
length two: step i is an up-step when i sits in the second column, and
otherwise a down-step labeled by the row of i.
"""

from __future__ import annotations

import heapq
import random
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import permutations
from math import comb, factorial

from .tableaux import Tableau

__all__ = [
    "DyckPath",
    "LabeledDyckPath",
    "up_step_labels",
    "labeled_dyck_word",
    "format_word",
    "spct_to_ldyck",
    "ldyck_to_spct",
    "enumerate_dyck",
    "enumerate_ldyck",
    "random_ldyck",
    "catalan",
    "labeled_catalan",
    "ldyck_from_json",
]

_DOWN_TOKEN = re.compile(r"^D([1-9][0-9]*)$")


def _check_balance(ups_downs: Sequence[str], what: str) -> None:
    height = 0
    for step in ups_downs:
        height += 1 if step == "U" else -1
        if height < 0:
            raise ValueError(f"{what} dips below the ground")
    if height != 0:
        raise ValueError(f"{what} does not return to the ground")


@dataclass(frozen=True)
class DyckPath:
    """Steps 'U' and 'D', balanced, prefixes never below the ground."""

    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(s not in ("U", "D") for s in self.steps):
            raise ValueError(f"steps must be 'U' or 'D': {self.steps}")
        _check_balance(self.steps, "path")

    @property
    def semi_length(self) -> int:
        return len(self.steps) // 2

    @property
    def word(self) -> str:
        return "".join(self.steps)

    def to_json(self) -> dict:
        return {"n": self.semi_length, "steps": list(self.steps)}


@dataclass(frozen=True)
class LabeledDyckPath:
    """Steps 'U' and 'D<label>'; down labels distinct positive integers.

    The labels are parsed once, at construction, into ``_downs``, and
    ``up_step_labels`` stores its result in ``_ups``: plain attributes, not
    fields, so equality, hashing and repr read only the steps.
    """

    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        shape = []
        labels = []
        for s in self.steps:
            if s == "U":
                shape.append("U")
                continue
            m = _DOWN_TOKEN.match(s)
            if not m:
                raise ValueError(f"bad step token: {s!r}")
            shape.append("D")
            labels.append(int(m.group(1)))
        _check_balance(shape, "path")
        if len(set(labels)) != len(labels):
            raise ValueError(f"down-step labels repeat: {labels}")
        object.__setattr__(self, "_downs", tuple(labels))

    @classmethod
    def _trusted(cls, steps: tuple[str, ...], downs: tuple[int, ...]) -> LabeledDyckPath:
        # steps the library built and knows to form a path, with their down
        # labels left to right: no parse and no checks run
        path = object.__new__(cls)
        object.__setattr__(path, "steps", steps)
        object.__setattr__(path, "_downs", downs)
        return path

    @property
    def semi_length(self) -> int:
        return len(self.steps) // 2

    @property
    def down_labels(self) -> tuple[int, ...]:
        """Down-step labels, left to right."""
        return self._downs

    @property
    def canonical(self) -> bool:
        """True iff the labels are exactly 1..n."""
        # n distinct positive labels with largest n are exactly 1..n
        return max(self._downs, default=0) == self.semi_length

    @property
    def unlabeled(self) -> DyckPath:
        return DyckPath(tuple("U" if s == "U" else "D" for s in self.steps))

    def to_json(self) -> dict:
        return {"n": self.semi_length, "steps": list(self.steps)}


def _require_canonical(d: LabeledDyckPath) -> None:
    if not d.canonical:
        raise ValueError(f"labels must be exactly 1..{d.semi_length}")


def up_step_labels(d: LabeledDyckPath) -> tuple[int, ...]:
    """Labels acquired by the up-steps, reported left to right.

    Scanning right to left, an up-step takes the smallest label among
    down-steps after it that no up-step after it has taken.  This is the one
    copy of the rule: ``ldyck_to_spct``, ``spct_to_ldyck`` and
    ``trees.ldyck_to_ltree`` all read the labels from here.  The result is
    stored on the path, so each path object is scanned once, however many
    of those maps it passes through.
    """
    ups = getattr(d, "_ups", None)
    if ups is not None:
        return ups
    assigned: list[int] = []
    available: list[int] = []  # heap of the later down labels not yet taken
    labels = reversed(d.down_labels)
    for s in reversed(d.steps):
        if s == "U":
            if not available:  # impossible on a valid path
                raise AssertionError("no label available; path corrupt")
            assigned.append(heapq.heappop(available))
        else:
            heapq.heappush(available, next(labels))
    ups = tuple(reversed(assigned))
    object.__setattr__(d, "_ups", ups)
    return ups


def labeled_dyck_word(d: LabeledDyckPath) -> tuple[str, ...]:
    """Fully labeled word: tokens 'U<k>' and 'D<k>' left to right."""
    ups = iter(up_step_labels(d))
    return tuple(f"U{next(ups)}" if s == "U" else s for s in d.steps)


def format_word(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


def spct_to_ldyck(t: Tableau) -> LabeledDyckPath:
    """Read a two-column standard tableau off as a labeled path.

    Step i is an up-step when i is in the second column, else a down-step
    labeled by the row containing i.  On the two-column rectangles the map
    is a bijection with inverse ``ldyck_to_spct``, so the input is valid
    exactly when the steps form a path that ``ldyck_to_spct`` takes back to
    it; that is checked in O(n log n), without ``validate_pct``.  The steps
    come from one list of integers, the row of each entry; each row has one
    cell in column 1, so the down labels are 1..n, each once, and every
    down-step maps back to its own cell.  So the path maps back to the
    tableau exactly when ``up_step_labels`` gives each up-step the row of
    its entry: one comparison, with no tableau rebuilt, and the labels stay
    stored on the path.
    """
    if any(len(row) != 2 for row in t.rows):
        raise ValueError(f"shape must be a two-column rectangle: {t.shape}")
    size = t.size
    # the row of each entry, negated in column 2, and 0 for an entry that no
    # cell holds: with 2n cells, the entries are 1..2n when none is 0
    where = [0] * (size + 1)
    steps: list[str] = []
    downs: list[int] = []
    valid = max(map(max, t.rows)) <= size
    if valid:
        for r, (x, y) in enumerate(t.rows, start=1):
            where[x] = r
            where[y] = -r
        height = 0
        for r in where[1:]:
            if r < 0:
                steps.append("U")
                height += 1
            elif r and height:
                steps.append(f"D{r}")
                downs.append(r)
                height -= 1
            else:  # an entry missing, or a step below the ground
                valid = False
                break
    if valid:
        d = LabeledDyckPath._trusted(tuple(steps), tuple(downs))
        valid = up_step_labels(d) == tuple(-r for r in where if r < 0)
    if not valid:
        raise ValueError("input is not a valid standard tableau")
    return d


def ldyck_to_spct(d: LabeledDyckPath) -> Tableau:
    """Rebuild the two-column tableau: label i with its up-step at position p
    and down-step at position q gives row i the entries q then p.

    The up-steps' labels come from ``up_step_labels``, stored on the path.
    An up-step takes its label from a later down-step, so one left-to-right
    pass meets each label's up-step first and completes its row at its
    down-step.
    """
    _require_canonical(d)
    n = d.semi_length
    if n == 0:
        raise ValueError("need at least one row: 0")
    up_at = [0] * (n + 1)
    rows: list[tuple[int, int] | None] = [None] * (n + 1)
    ups = iter(up_step_labels(d))
    downs = iter(d.down_labels)
    for position, s in enumerate(d.steps, start=1):
        if s == "U":
            up_at[next(ups)] = position
        else:
            label = next(downs)
            rows[label] = (position, up_at[label])
    return Tableau._trusted(tuple(rows[1:]))


def enumerate_dyck(n: int) -> Iterator[DyckPath]:
    """All paths of semi-length n, lexicographic with 'U' before 'D'."""
    if n < 0:
        raise ValueError(f"semi-length must be nonnegative: {n}")
    return _dyck_walk(n)


def _dyck_walk(n: int) -> Iterator[DyckPath]:
    # the next path turns the last up-step that may become a down-step into
    # one, then finishes with all its remaining ups before its downs
    steps = ["U"] * n + ["D"] * n
    while True:
        yield DyckPath(tuple(steps))
        ups = downs = n  # steps before position i of each kind
        for i in range(2 * n - 1, -1, -1):
            if steps[i] == "D":
                downs -= 1
                continue
            ups -= 1
            if downs < ups:
                steps[i:] = ["D"] + ["U"] * (n - ups) + ["D"] * (n - downs - 1)
                break
        else:
            return


def enumerate_ldyck(n: int) -> Iterator[LabeledDyckPath]:
    """All n! Cat(n) canonical labeled paths of semi-length n."""
    tokens = [f"D{label}" for label in range(n + 1)]
    for path in enumerate_dyck(n):
        down_positions = [k for k, s in enumerate(path.steps) if s == "D"]
        for labels in permutations(range(1, n + 1)):
            steps = list(path.steps)
            for k, label in zip(down_positions, labels):
                steps[k] = tokens[label]
            yield LabeledDyckPath._trusted(tuple(steps), labels)


def random_ldyck(n: int, rng: random.Random) -> LabeledDyckPath:
    """One canonical labeled path, uniform over the unlabeled paths and over
    the label orders independently, in O(n).

    By the cycle lemma, a word of n ups and n+1 downs has exactly one
    rotation that is a path followed by one down-step: the rotation starting
    just after its first lowest prefix.  Each path thus comes from exactly
    2n+1 of the equally likely words.
    """
    if n < 0:
        raise ValueError(f"semi-length must be nonnegative: {n}")
    word = ["D"] * (2 * n + 1)
    for k in rng.sample(range(2 * n + 1), n):
        word[k] = "U"
    height = low = cut = 0
    for k, s in enumerate(word):
        height += 1 if s == "U" else -1
        if height < low:
            low, cut = height, k + 1
    path = (word[cut:] + word[:cut])[:-1]  # drop the final down-step
    labels = tuple(rng.sample(range(1, n + 1), n))
    downs = iter(labels)
    return LabeledDyckPath._trusted(
        tuple(s if s == "U" else f"D{next(downs)}" for s in path), labels
    )


def catalan(n: int) -> int:
    """The n-th Catalan number."""
    return comb(2 * n, n) // (n + 1)


def labeled_catalan(n: int) -> int:
    """n! Cat(n): the canonical labeled paths of semi-length n, the labeled
    trees on n nodes, and the standard tableaux of (2)^n.

    >>> labeled_catalan(3)
    30
    """
    return factorial(n) * catalan(n)


def ldyck_from_json(data: dict) -> LabeledDyckPath:
    if not isinstance(data, dict) or "steps" not in data:
        raise ValueError('expected an object with a "steps" key')
    steps = data["steps"]
    if not isinstance(steps, list) or not all(isinstance(s, str) for s in steps):
        raise ValueError('"steps" must be a list of step tokens')
    d = LabeledDyckPath(tuple(steps))
    if "n" in data and type(data["n"]) is not int:
        raise ValueError(f'"n" must be an integer: {data["n"]!r}')
    if "n" in data and data["n"] != d.semi_length:
        raise ValueError(
            f'declared semi-length {data["n"]} does not match {d.semi_length}'
        )
    return d
