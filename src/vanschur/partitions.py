"""Weakly decreasing integer vectors, dominance order, admissible enumeration.

Partitions and decreasing vectors are plain tuples of ints. Wherever a fixed
alphabet size n matters (tensor indexing, enumeration) partitions carry
explicit trailing zeros up to length n.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

IntVec = tuple[int, ...]


def as_decreasing(entries: Iterable[int]) -> IntVec:
    """Validate and freeze a weakly decreasing integer vector."""
    v = tuple(map(int, entries))
    if not all(map(operator.ge, v, v[1:])):
        raise ValueError(f"not weakly decreasing: {list(v)}")
    return v


def as_partition(entries: Iterable[int], n: int | None = None) -> IntVec:
    """Validate a partition (weakly decreasing, nonnegative).

    With n given, pads with trailing zeros to length n and rejects inputs
    with more than n parts.
    """
    v = as_decreasing(entries)
    if v and v[-1] < 0:
        raise ValueError(f"negative part in partition: {list(v)}")
    if n is not None:
        if len(v) > n:
            raise ValueError(f"partition {list(v)} has more than {n} parts")
        v = v + (0,) * (n - len(v))
    return v


@dataclass(frozen=True)
class AdmissibleBounds:
    """Dominance interval endpoints for the expansion coefficients of (n, k)."""

    upper: IntVec
    lower: IntVec
    n: int
    k: int

    @classmethod
    def of(cls, n: int, k: int) -> "AdmissibleBounds":
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        upper = tuple(2 * k * (n - 1 - i) for i in range(n))
        lower = (k * (n - 1),) * n
        return cls(upper=upper, lower=lower, n=n, k=k)

    @property
    def target_weight(self) -> int:
        return self.k * self.n * (self.n - 1)


def dominates(a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff every prefix sum of a is >= the matching prefix sum of b.

    The shorter argument is padded with zeros. Comparing partitions of
    different weight is meaningless and raises ValueError.
    """
    pa = as_partition(a)
    pb = as_partition(b)
    n = max(len(pa), len(pb))
    pa = pa + (0,) * (n - len(pa))
    pb = pb + (0,) * (n - len(pb))
    if sum(pa) != sum(pb):
        raise ValueError(
            f"incomparable inputs: weights differ ({sum(pa)} vs {sum(pb)})"
        )
    sa = sb = 0
    for x, y in zip(pa, pb):
        sa += x
        sb += y
        if sa < sb:
            return False
    return True


@functools.cache
def _prefix_bounds(n: int, k: int) -> tuple[IntVec, IntVec]:
    """Least and greatest sums of the first i+1 parts of an admissible
    partition of (n, k), for i = 0..n-1: those of the flat lower bound,
    k(i+1)(n-1), and of the staircase upper bound, k(i+1)(2n-2-i). Both end
    at the weight k*n*(n-1)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    lo = tuple(k * (i + 1) * (n - 1) for i in range(n))
    up = tuple(k * (i + 1) * (2 * n - 2 - i) for i in range(n))
    return lo, up


def _within_bounds(lam: IntVec, n: int, k: int) -> bool:
    """is_admissible for a partition that as_partition(lam, n) returned."""
    lo, up = _prefix_bounds(n, k)
    return all(a <= s <= b for a, s, b in zip(lo, accumulate(lam), up))


def is_admissible(lam: Iterable[int], n: int, k: int) -> bool:
    """Membership test for the dominance interval of (n, k).

    True iff lam has at most n parts, weight k*n*(n-1), and sits between the
    flat lower bound and the staircase upper bound in dominance order, all
    read off one pass over its prefix sums.
    """
    _prefix_bounds(n, k)  # a bad (n, k) raises, whatever lam is
    try:
        lam = as_partition(lam, n)
    except ValueError:
        return False
    return _within_bounds(lam, n, k)


def enumerate_admissible(n: int, k: int) -> Iterator[IntVec]:
    """Admissible partitions of (n, k) in reverse-lexicographic order, largest first.

    Depth-first generation of weakly decreasing nonnegative vectors with the
    prefix sums pinned inside the dominance interval at every position, so the
    interval is pruned directly instead of filtering all partitions of the
    weight.
    """
    lo, up = _prefix_bounds(n, k)
    w = up[-1]
    out = [0] * n

    def rec(idx: int, s: int, prev: int) -> Iterator[IntVec]:
        if idx == n:
            yield tuple(out)
            return
        left = w - s
        hi = min(prev, up[idx] - s, left)
        # every later part is <= v, so v*(n-idx) must cover the leftover weight
        lb = max(lo[idx] - s, 0, -(-left // (n - idx)))
        for v in range(hi, lb - 1, -1):
            out[idx] = v
            yield from rec(idx + 1, s + v, v)

    yield from rec(0, 0, 2 * k * (n - 1))


def count_admissible(n: int, k: int) -> int:
    return sum(1 for _ in enumerate_admissible(n, k))
