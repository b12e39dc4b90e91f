"""The reference kernel: a fixed piece of pure-Python work that defines the
benchmark's unit of time.

On a shared host the same code runs up to twice as slow for minutes at a
time, when other tenants contend for the core, and every timing moves with
it.  Python code of the same kind as tabkit's (tuples, sets, dicts, small
loops and generators) slows down by about the same factor, so the benchmark
times this kernel between ops and divides each op's time by the kernel's.
The quotient is what the op costs in kernel runs, whatever the host is doing.

A reference millisecond is ``1 / REF_MS`` of one kernel run, so that on a
quiet host a reference millisecond is about a real one.  The kernel is frozen:
changing it, or ``REF_MS``, changes the unit of every reported time.
"""

from __future__ import annotations

import random
from itertools import combinations

REF_MS = 1.5  # one kernel run, in reference milliseconds


def _paths(rng: random.Random, count: int, n: int) -> list[tuple[str, ...]]:
    # cycle-lemma rotations of random words of n ups and n+1 downs
    out = []
    for _ in range(count):
        word = ["D"] * (2 * n + 1)
        for i in rng.sample(range(2 * n + 1), n):
            word[i] = "U"
        height = low = cut = 0
        for i, step in enumerate(word):
            height += 1 if step == "U" else -1
            if height < low:
                low, cut = height, i + 1
        out.append(tuple(word[cut:] + word[:cut]))
    return out


def _nested(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # inversion sets nested, and no a-increasing triple on which b reads 312
    inv = lambda p: {(i, j) for i, j in combinations(range(len(p)), 2) if p[i] > p[j]}
    if not inv(a) <= inv(b):
        return False
    return not any(a[i] < a[j] < a[k] and b[j] < b[k] < b[i]
                   for i, j, k in combinations(range(len(a)), 3))


def _partitions(m: int, largest: int) -> list[tuple[int, ...]]:
    if m == 0:
        return [()]
    return [(k,) + rest for k in range(min(m, largest), 0, -1)
            for rest in _partitions(m - k, k)]


def kernel() -> int:
    """One run of the reference work; returns a checksum."""
    rng = random.Random(20171214)
    paths = _paths(rng, 20, 64)
    counts: dict[tuple[str, str], int] = {}
    for p in paths:
        for step in zip(p, p[1:]):
            counts[step] = counts.get(step, 0) + 1
    perms = [tuple(rng.sample(range(1, 8), 7)) for _ in range(10)]
    nested = sum(_nested(a, b) for a, b in zip(perms, perms[1:]))
    parts = sorted(_partitions(12, 12), key=len)
    return sum(counts.values()) + nested + len(parts)
