"""Canonical combinatorics of m-subsets of [d].

Subsets are strictly increasing tuples of 1-based integers.  The ordering
used everywhere is the set order ``I < J  iff  min(I \\ J) < min(J \\ I)``,
which for fixed-size sorted tuples coincides with plain lexicographic
tuple comparison; ranking and unranking use the combinatorial number
system, so nothing is enumerated even for large ground sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

Subset = tuple[int, ...]


def binom(b: int, a: int) -> int:
    """Binomial coefficient with the convention C(b, a) = 0 for a < 0 or a > b."""
    if a < 0 or a > b:
        return 0
    return comb(b, a)


def as_subset(elems: Iterable[int], d: int | None = None) -> Subset:
    """Validate and normalize a subset: strictly increasing, within [1, d]."""
    t = tuple(elems)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"subset elements must be strictly increasing, got {t}")
    if t and t[0] < 1:
        raise ValueError(f"subset elements must be positive, got {t}")
    if t and d is not None and t[-1] > d:
        raise ValueError(f"subset elements must lie in [1, {d}], got {t}")
    return t


def ind(I: Iterable[int], x: int) -> int:
    """Number of elements of I that are <= x."""
    return sum(1 for y in I if y <= x)


@dataclass(frozen=True)
class LexIndexer:
    """Bijection between m-subsets of [d] and column indices [0, C(d, m))."""

    d: int
    m: int

    def __post_init__(self) -> None:
        # m > d is allowed and indexes the empty family (C(d, m) = 0).
        if self.d < 0 or self.m < 0:
            raise ValueError(f"need d, m >= 0, got m={self.m}, d={self.d}")

    def __len__(self) -> int:
        return binom(self.d, self.m)

    def subsets(self) -> Iterator[Subset]:
        """All m-subsets of [d] in increasing rank (lexicographic) order."""
        return combinations(range(1, self.d + 1), self.m)

    def rank(self, I: Iterable[int]) -> int:
        t = as_subset(I, self.d)
        if len(t) != self.m:
            raise ValueError(f"expected a {self.m}-subset, got {t}")
        r = 0
        prev = 0
        for pos, c in enumerate(t):
            for x in range(prev + 1, c):
                r += binom(self.d - x, self.m - pos - 1)
            prev = c
        return r

    def unrank(self, i: int) -> Subset:
        if not 0 <= i < len(self):
            raise IndexError(f"rank {i} out of range [0, {len(self)})")
        out = []
        x = 1
        rem = i
        for pos in range(self.m):
            while rem >= binom(self.d - x, self.m - pos - 1):
                rem -= binom(self.d - x, self.m - pos - 1)
                x += 1
            out.append(x)
            x += 1
        return tuple(out)
