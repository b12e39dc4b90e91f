"""Permutations, compositions, standardization, and the left weak order.

Permutations are tuples in one-line notation, 1-indexed: ``p[i-1]`` is the
image of ``i``.  Compositions are tuples of positive parts.  Everything here
is a pure function on immutable values.

>>> standardize((3, 1, 2, 2))
(4, 1, 2, 3)
>>> sorted(inversions((2, 3, 1)))
[(1, 3), (2, 3)]
>>> weak_bruhat_leq((1, 2, 3), (3, 2, 1))
True
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from operator import mul

__all__ = [
    "Perm",
    "Composition",
    "identity",
    "is_permutation",
    "check_permutation",
    "standardize",
    "inversions",
    "weak_bruhat_leq",
    "left_cover_swaps",
    "apply_left_swap",
    "maximal_chain_to",
    "check_composition",
    "composition_size",
    "to_partition",
    "compositions_of",
    "partitions_of",
    "parse_permutation",
    "format_permutation",
    "parse_composition",
    "format_composition",
]

Perm = tuple[int, ...]
Composition = tuple[int, ...]


def identity(n: int) -> Perm:
    """The identity permutation of [n]."""
    return tuple(range(1, n + 1))


def is_permutation(seq: Sequence[int]) -> bool:
    """True iff seq is a bijection of {1, ..., len(seq)} in one-line notation."""
    # exact type test: bool is an int subclass, and 1.0 == 1, so neither is
    # caught by the sort
    return all(type(x) is int for x in seq) and sorted(seq) == list(range(1, len(seq) + 1))


def check_permutation(seq: Sequence[int]) -> Perm:
    """Return seq as a Perm, raising ValueError if it is not a permutation."""
    p = tuple(seq)
    if not is_permutation(p):
        raise ValueError(f"not a permutation of [{len(p)}]: {p}")
    return p


def standardize(word: Sequence[int]) -> Perm:
    """The unique permutation s with s[i] > s[j] iff word[i] > word[j], i < j.

    Equal letters are ordered by position: the earlier occurrence gets the
    smaller image (forced by the strict iff).

    >>> standardize((3, 1, 2, 2))
    (4, 1, 2, 3)
    >>> standardize((5, 5, 5))
    (1, 2, 3)
    """
    if len(word) == 0:
        raise ValueError("empty input")
    # sort positions by letter, stably so that ties keep their order; the
    # rank is the image
    order = sorted(range(len(word)), key=word.__getitem__)
    images = [0] * len(word)
    for rank, pos in enumerate(order, start=1):
        images[pos] = rank
    return tuple(images)


def inversions(p: Sequence[int]) -> frozenset[tuple[int, int]]:
    """All position pairs (i, j), 1-indexed, i < j, with p(i) > p(j).

    >>> sorted(inversions((3, 2, 1)))
    [(1, 2), (1, 3), (2, 3)]
    """
    n = len(p)
    return frozenset(
        (i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if p[i] > p[j]
    )


def weak_bruhat_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Left weak order: a <= b iff every inversion of a is an inversion of b."""
    n = len(a)
    if n != len(b):
        raise ValueError(f"size mismatch: {n} vs {len(b)}")
    for i in range(n):
        for j in range(i + 1, n):
            # the inversion (i, j) of a must be one of b
            if a[i] > a[j] and b[i] <= b[j]:
                return False
    return True


def apply_left_swap(p: Perm, v: int) -> Perm:
    """Left-multiply by the simple transposition of values v and v+1."""
    return tuple(v + 1 if x == v else v if x == v + 1 else x for x in p)


def left_cover_swaps(p: Perm) -> list[int]:
    """All v such that swapping values v, v+1 in p adds exactly one inversion.

    These are the v whose occurrence precedes that of v+1; each gives a cover
    of p in the left weak order.
    """
    pos = {x: i for i, x in enumerate(p)}
    return [v for v in range(1, len(p)) if pos[v] < pos[v + 1]]


def maximal_chain_to(target: Sequence[int]) -> tuple[Perm, ...]:
    """A saturated chain in the left weak order from the identity to target.

    Each step left-multiplies by one simple transposition and gains exactly
    one inversion, so the chain has 1 + |inversions(target)| elements.
    Deterministic: at every step the smallest valid swap value is chosen.

    >>> maximal_chain_to((2, 1, 3))
    ((1, 2, 3), (2, 1, 3))
    """
    t = check_permutation(target)
    n = len(t)
    current = list(range(1, n + 1))
    pos = [-1, *range(n)]  # pos[x]: the position of value x in current
    chain = [tuple(current)]
    v = 1
    while v < n:
        i, j = pos[v], pos[v + 1]
        # the swap adds the one inversion at positions i < j, so it stays
        # below t exactly when t inverts those positions too
        if i < j and t[i] > t[j]:
            current[i], current[j] = v + 1, v
            pos[v], pos[v + 1] = j, i
            chain.append(tuple(current))
            # the swap moved only v and v + 1, so every value below v - 1
            # still gives no step
            v = max(v - 1, 1)
        else:
            v += 1
    # no value gives a step, so current is t: the interval [current, t] of
    # the weak order is graded
    return tuple(chain)


def check_composition(parts: Sequence[int]) -> Composition:
    """Return parts as a Composition, raising ValueError on parts that are
    not positive integers (a bool or a float included)."""
    c = tuple(parts)
    if any(type(x) is not int or x < 1 for x in c):
        raise ValueError(f"composition parts must be positive integers: {c}")
    return c


def composition_size(c: Composition) -> int:
    """Sum of the parts."""
    return sum(c)


def to_partition(c: Sequence[int]) -> Composition:
    """Parts sorted weakly decreasing."""
    return tuple(sorted(check_composition(c), reverse=True))


def compositions_of(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, each exactly once.

    Order: lexicographic in the break-set indicator b_1 ... b_(n-1), where
    b_i = 1 iff i is a partial sum.  So (n) comes first and (1, ..., 1) last.

    >>> list(compositions_of(3))
    [(3,), (2, 1), (1, 2), (1, 1, 1)]
    """
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    for mask in range(1 << (n - 1)):
        parts = []
        last = 0
        for i in range(1, n):
            if mask >> (n - 1 - i) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        yield tuple(parts)


def partitions_of(n: int) -> Iterator[Composition]:
    """All partitions of n, parts weakly decreasing, each exactly once.

    Order: reverse lexicographic, so (n) comes first and (1, ..., 1) last.
    Each next partition drops the trailing ones, lowers the last part x > 1
    by one, and refills what that freed with parts of x - 1.

    >>> list(partitions_of(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    parts = [n]
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        x = parts.pop() - 1
        q, r = divmod(ones + x + 1, x)
        parts += [x] * q
        if r:
            parts.append(r)


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation, whitespace- or comma-separated."""
    return check_permutation(_parse_ints(text, "permutation"))


def format_permutation(p: Perm) -> str:
    return " ".join(map(str, p))


def parse_composition(text: str) -> Composition:
    """Parse a composition, whitespace- or comma-separated parts."""
    return check_composition(_parse_ints(text, "composition"))


def format_composition(c: Composition) -> str:
    return ",".join(map(str, c))


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError(f"empty {what}")
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"malformed {what}: {text!r}") from None


# Quadruples of counts below n, as the two-column census and the tree
# recurrence carry them: packed into one int, as its digits in base n.  A sum
# of packed quadruples packs the sum while each coordinate stays below n.


def _places(n: int) -> tuple[int, int, int, int]:
    # the packed value of each unit quadruple
    return (n**3, n**2, n, 1)


def _packed(q: Sequence[int], places: Sequence[int]) -> int:
    return sum(map(mul, q, places))


def _unpacked(packed: dict[int, int], n: int) -> Counter[tuple[int, int, int, int]]:
    # the quadruples of a packed distribution and their counts, zero counts
    # dropped
    return Counter({
        (key // n**3, key // n**2 % n, key // n % n, key % n): ways
        for key, ways in packed.items()
        if ways
    })
