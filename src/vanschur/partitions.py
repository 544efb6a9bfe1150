"""Weakly decreasing integer vectors and the admissible partitions of (n, k),
the dominance interval between a flat and a staircase partition.

Partitions and decreasing vectors are plain tuples of ints. Wherever a fixed
alphabet size n matters (tensor indexing, enumeration) partitions carry
explicit trailing zeros up to length n.
"""

from __future__ import annotations

import functools
import operator
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

IntVec = tuple[int, ...]


class Frozen:
    """Base of the package's small value classes, in place of frozen
    dataclasses, whose module costs every process `inspect` at start-up; it
    lives here because every module that defines one imports this one.

    The fields are the subclass's __slots__, in order; __init__ sets each
    once through object.__setattr__, and assignment afterwards raises.
    Instances compare and hash as the tuple of their fields, and pickle as
    a call of the class on them.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def as_decreasing(entries: Iterable[int]) -> IntVec:
    """entries as a tuple, refusing with a ValueError a vector that is not
    weakly decreasing or holds an entry whose type is not exactly int: a
    bool, a float, a string or a numpy integer is refused, never rounded or
    converted."""
    v = tuple(entries)
    for x in v:
        if type(x) is not int:
            raise ValueError(f"entry {x!r} is not an int: {list(v)}")
    if not all(map(operator.ge, v, v[1:])):
        raise ValueError(f"not weakly decreasing: {list(v)}")
    return v


def as_partition(entries: Iterable[int], n: int | None = None) -> IntVec:
    """entries as a partition: a tuple of ints, weakly decreasing and
    nonnegative, checked as as_decreasing checks a vector. The package's one
    partition check: the functions that take a partition and the record
    decoders all call it.

    With n given, pads with trailing zeros to length n and refuses inputs
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
    weight. One generator walks the tree with an explicit stack of the first
    n-2 parts; the next-to-last part runs over its range in one loop, and the
    last part is what the weight leaves, which always fits: the bounds on the
    next-to-last part keep it between 0 and that part.
    """
    lo, up = _prefix_bounds(n, k)
    w = up[-1]
    if n == 1:
        yield (w,)
        return
    pen = n - 2
    parts = [0] * pen
    floor = [0] * pen  # the smallest value each stacked part may take
    before = [0] * pen  # the sum of the parts before it
    i, s, prev = 0, 0, up[0]
    while True:
        # descend, giving each part its largest value
        while i < pen:
            left = w - s
            hi = min(prev, up[i] - s, left)
            # every later part is <= v, so v*(n-i) must cover the leftover weight
            lb = max(lo[i] - s, 0, -(-left // (n - i)))
            if hi < lb:
                break
            parts[i] = prev = hi
            floor[i] = lb
            before[i] = s
            s += hi
            i += 1
        else:
            left = w - s
            head = tuple(parts)
            for v in range(min(prev, left), max(lo[pen] - s, -(-left // 2)) - 1, -1):
                yield head + (v, left - v)
        # back up to the deepest part that can still shrink
        i -= 1
        while i >= 0 and parts[i] == floor[i]:
            i -= 1
        if i < 0:
            return
        parts[i] = prev = parts[i] - 1
        s = before[i] + prev
        i += 1


def pair_class(lam: IntVec, n: int, k: int, classes: int) -> int:
    """Which of `classes` workers or shards takes lam, an admissible partition
    padded to n parts: with mu the smaller of lam and its complement,
    ((mu_1 + mu_3) mod 2 + 2 floor(mu_1 / 2)) mod classes, where mu_3 = 0 when
    n < 3. For two classes it is the parity of mu_1 + mu_3.

    Both members of a complement pair get one class, and so, mostly, do
    coefficients that share subproblems: a pivot slot drops by 2k per level,
    so the parities of its leading entries carry into what it spawns. The
    complement is built only when the two leading entries tie.
    """
    top = 2 * k * (n - 1)
    first, last = lam[0], top - lam[-1]
    if first > last or (first == last and lam > tuple(top - x for x in reversed(lam))):
        first, third = last, (top - lam[-3] if n > 2 else 0)
    else:
        third = lam[2] if n > 2 else 0
    return ((first + third) % 2 + 2 * (first // 2)) % classes


def deal(lams: Iterable[IntVec], n: int, k: int, classes: int) -> list[list[IntVec]]:
    """lams split by pair_class into `classes` parts, each in the given order:
    part j is what shard j of a table holds and what worker j evaluates."""
    parts: list[list[IntVec]] = [[] for _ in range(classes)]
    for lam in lams:
        parts[pair_class(lam, n, k, classes)].append(lam)
    return parts


def gather(lams: Sequence[IntVec], n: int, k: int, classes: int,
           parts: Sequence[Iterable]) -> list:
    """The inverse of deal: one item per partition of lams, in its order,
    drawn in turn from the part of its class, or None once that part runs
    out. Items beyond a part's share are left undrawn."""
    if classes == 1:
        items = list(islice(parts[0], len(lams)))
        return items + [None] * (len(lams) - len(items))
    draws = [iter(part) for part in parts]
    return [next(draws[pair_class(lam, n, k, classes)], None) for lam in lams]


def count_admissible(n: int, k: int) -> int:
    """Number of admissible partitions of (n, k), counted layer by layer
    without walking them: after the first i parts, the ways to reach each
    prefix sum, by last part, inside the prefix bounds. A part is at most
    the one before it, and at least what the weight leaves over it and the
    parts after it, which are no larger."""
    lo, up = _prefix_bounds(n, k)
    w = up[-1]
    # prefix sum -> (least last part, ways by last part from there up)
    layer = {s: (s, [1]) for s in range(max(lo[0], -(-w // n)), up[0] + 1)}
    for i in range(1, n):
        grown: dict[int, dict[int, int]] = {}
        for s, (least, ways) in layer.items():
            # the ways whose last part is least + j or more
            at_least = list(accumulate(reversed(ways)))[::-1]
            first = max(lo[i] - s, -(-(w - s) // (n - i)))
            for v in range(first, min(least + len(ways) - 1, up[i] - s) + 1):
                t = s + v
                row = grown.get(t)
                if row is None:
                    row = grown[t] = {}
                row[v] = at_least[v - least] if v > least else at_least[0]
        layer = {}
        for s, ways in grown.items():
            least = min(ways)
            layer[s] = (least, [ways.get(v, 0) for v in range(least, max(ways) + 1)])
    return sum(sum(ways) for _, ways in layer.values())
