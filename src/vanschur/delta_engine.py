"""Sparse Kronecker-delta hyperdeterminant engine.

A spec is an ordered list of 2K weakly decreasing integer vectors of length n.
The implied order-2K tensor has entry 1 at (i_1, ..., i_2K) exactly when

    v1[n-i_1+1] + ... + v2K[n-i_2K+1] + i_1 + ... + i_2K == (2K-1)n + 1

(1-based positions) and 0 elsewhere. Its hyperdeterminant is evaluated by the
generalized Laplace recursion pivoted on i_1 = 1, with memoization keyed on
the permutation/shift symmetry classes, a block-factorization shortcut, and
grouped enumeration of the surviving index tuples.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial
from typing import Sequence

from .hyperdet import DenseTensor, hankel_tensor
from .partitions import IntVec, as_decreasing

DEFAULT_CACHE_CAPACITY = 1 << 24
CACHE_CAPACITY_ENV = "VANSCHUR_CACHE_CAPACITY"

DEFAULT_MATERIALIZE_LIMIT = 1 << 21


@dataclass(frozen=True)
class DeltaSpec:
    """Implicit sparse tensor given by its 2K decreasing vectors."""

    vectors: tuple[IntVec, ...]

    def __post_init__(self):
        vecs = tuple(as_decreasing(v) for v in self.vectors)
        if len(vecs) < 2 or len(vecs) % 2:
            raise ValueError("need an even number (>= 2) of vectors")
        if any(len(v) != len(vecs[0]) for v in vecs):
            raise ValueError("all vectors must share one length")
        object.__setattr__(self, "vectors", vecs)

    @property
    def n(self) -> int:
        return len(self.vectors[0])

    @property
    def order(self) -> int:
        return len(self.vectors)

    @property
    def half(self) -> int:
        return len(self.vectors) // 2

    @property
    def target(self) -> int:
        return (self.order - 1) * self.n + 1

    @classmethod
    def for_coefficient(cls, lam: Sequence[int], n: int, k: int) -> "DeltaSpec":
        """Spec whose value gives the expansion coefficient of lam up to sign:
        lam alongside 2k+1 zero vectors, a tensor of order 2(k+1)."""
        lam = tuple(lam) + (0,) * (n - len(lam))
        return cls((lam,) + ((0,) * n,) * (2 * k + 1))


class MemoCache:
    """Bounded LRU map from canonical keys to evaluated values.

    Inserts are idempotent: re-inserting a key with a conflicting value is a
    bug and raises. A capacity of 0 disables storage entirely; eviction only
    ever costs recomputation, never correctness.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is None:
            capacity = int(os.environ.get(CACHE_CAPACITY_ENV, DEFAULT_CACHE_CAPACITY))
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        if self.capacity == 0:
            return
        old = self._data.get(key)
        if old is not None:
            if old != value:
                raise RuntimeError(f"conflicting cache insert for {key}")
            return
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)


def weight_ok(spec: DeltaSpec) -> bool:
    """Necessary condition for a nonzero value: total entry sum (K-1)n(n-1)."""
    n = spec.n
    return sum(map(sum, spec.vectors)) == (spec.half - 1) * n * (n - 1)


def _canonical_key(vectors: tuple[IntVec, ...]):
    """Quotient of a spec by vector permutations and zero-sum entry shifts:
    each vector shifted to end in 0, sorted, with the total offset."""
    shift = 0
    norms = []
    for v in vectors:
        off = v[-1]
        if off:
            shift += off
            norms.append(tuple(x - off for x in v))
        else:
            norms.append(v)
    norms.sort()
    return (tuple(norms), shift)


def _split(vectors: tuple[IntVec, ...], half: int, n: int):
    """Block factorization at the first admissible cut, if any.

    The cut at m pairs the head of slot 1 (lowered by 2(K-1)(n-m)) with the
    other slots' m-tails, and the slot-1 tail with the other slots'
    (n-m)-heads; the condition below makes every other generalized-Laplace
    term vanish, leaving the single block product with sign (-1)^(m(n-m)).
    """
    first = vectors[0]
    rest = vectors[1:]
    base = half - 1
    head = 0
    tails = [0] * (n + 1)
    for v in rest:
        acc = 0
        for m in range(1, n):
            acc += v[n - m]
            tails[m] += acc
    for m in range(1, n):
        head += first[m - 1]
        if head + tails[m] != base * m * (2 * n - m - 1):
            continue
        off = 2 * base * (n - m)
        left = (tuple(x - off for x in first[:m]),) + tuple(v[n - m :] for v in rest)
        right = (first[m:],) + tuple(v[: n - m] for v in rest)
        sign = -1 if (m * (n - m)) % 2 else 1
        return left, right, sign
    return None


# ---------------------------------------------------------------------------
# evaluation

# per-(vector, multiset-size) tables reused across nodes; entries are small
_GROUP_TABLES: dict = {}
_GROUP_TABLES_MAX = 1 << 20


def _arrangements(combo: tuple[int, ...]) -> int:
    total = factorial(len(combo))
    run = 1
    for a, b in zip(combo, combo[1:]):
        if a == b:
            run += 1
        else:
            total //= factorial(run)
            run = 1
    return total // factorial(run)


def _group_table(v: IntVec, count: int):
    """All index multisets of one companion-vector group, sorted by value sum.

    Rows are (value_sum, index_sum, arrangements, child_vectors) where
    value_sum adds v[n-i+1] + i over the multiset and child_vectors are the
    struck slot vectors.
    """
    key = (v, count)
    hit = _GROUP_TABLES.get(key)
    if hit is not None:
        return hit
    n = len(v)
    taus = [0] * (n + 1)
    kids: list[IntVec] = [()] * (n + 1)
    for i in range(1, n + 1):
        cut = n - i
        taus[i] = v[cut] + i
        kids[i] = tuple(x + 1 for x in v[:cut]) + v[cut + 1 :]
    rows = []
    for combo in combinations_with_replacement(range(1, n + 1), count):
        tau = 0
        isum = 0
        for i in combo:
            tau += taus[i]
            isum += i
        rows.append((tau, isum, _arrangements(combo), tuple(kids[i] for i in combo)))
    rows.sort(key=lambda r: r[0])
    if len(_GROUP_TABLES) >= _GROUP_TABLES_MAX:
        _GROUP_TABLES.clear()
    _GROUP_TABLES[key] = rows
    return rows


def _pivot_children(vectors: tuple[IntVec, ...], half: int, n: int):
    """Distinct children of the i_1 = 1 pivot with signed multiplicities.

    Groups equal companion vectors, enumerates index multisets per group with
    suffix-sum pruning, and merges children that share a canonical key.
    Returns (signed_count, child_vectors) pairs.
    """
    order = len(vectors)
    target = (order - 1) * n + 1
    first = vectors[0]
    drop = 2 * (half - 1)
    child_first = tuple(x - drop for x in first[:-1])
    need = target - first[-1] - 1

    rest = sorted(vectors[1:])
    groups: list[tuple[IntVec, int]] = []
    for v in rest:
        if groups and groups[-1][0] == v:
            groups[-1] = (v, groups[-1][1] + 1)
        else:
            groups.append((v, 1))
    tables = [_group_table(v, c) for v, c in groups]
    sums = [[r[0] for r in t] for t in tables]

    g_count = len(tables)
    suff_min = [0] * (g_count + 1)
    suff_max = [0] * (g_count + 1)
    for g in range(g_count - 1, -1, -1):
        suff_min[g] = suff_min[g + 1] + sums[g][0]
        suff_max[g] = suff_max[g + 1] + sums[g][-1]

    acc: dict = {}

    def walk(g: int, left: int, parity: int, mult: int, chosen: tuple):
        if g == g_count:
            child = (child_first,) + chosen
            key = _canonical_key(child)
            slot = acc.get(key)
            coeff = -mult if parity else mult
            if slot is None:
                acc[key] = [coeff, child]
            else:
                slot[0] += coeff
            return
        table = tables[g]
        ssum = sums[g]
        lo = bisect_left(ssum, left - suff_max[g + 1])
        hi = bisect_right(ssum, left - suff_min[g + 1])
        for row in range(lo, hi):
            tau, isum, arr, kids = table[row]
            walk(g + 1, left - tau, parity ^ (isum & 1), mult * arr, chosen + kids)

    if suff_min[0] <= need <= suff_max[0]:
        walk(0, need, 1, 1, ())  # parity starts at i_1 = 1
    return [(slot[0], slot[1]) for slot in acc.values() if slot[0]]


def _evaluate(vectors: tuple[IntVec, ...], cache: MemoCache, factorize: bool) -> int:
    n = len(vectors[0])
    if n == 0:
        return 1
    half = len(vectors) // 2
    if sum(map(sum, vectors)) != (half - 1) * n * (n - 1):
        return 0
    if n == 1:
        return 1
    key = _canonical_key(vectors)
    hit = cache.get(key)
    if hit is not None:
        return hit
    # permutation symmetry: pivot on the vector with the widest entry spread
    widest = max(range(len(vectors)), key=lambda j: vectors[j][0] - vectors[j][-1])
    if widest:
        vectors = (vectors[widest],) + vectors[:widest] + vectors[widest + 1 :]
    value: int | None = None
    if factorize:
        found = _split(vectors, half, n)
        if found is not None:
            left, right, sign = found
            lval = _evaluate(left, cache, factorize)
            value = 0 if lval == 0 else sign * lval * _evaluate(right, cache, factorize)
    if value is None:
        value = 0
        for coeff, child in _pivot_children(vectors, half, n):
            sub = _evaluate(child, cache, factorize)
            if sub:
                value += coeff * sub
    cache.put(key, value)
    return value


def evaluate(
    spec: DeltaSpec, cache: MemoCache | None = None, *, factorize: bool = True
) -> int:
    """Exact hyperdeterminant of the sparse delta tensor.

    Zero when the weight condition fails; otherwise the signed sum over the
    i_1 = 1 pivot tuples of the child values, resolved bottom-up with
    memoization and the factorization shortcut; factorize=False evaluates
    without the shortcut, as a reference.
    """
    if cache is None:
        cache = MemoCache()
    return _evaluate(spec.vectors, cache, factorize)


def materialize(
    spec: DeltaSpec, limit: int = DEFAULT_MATERIALIZE_LIMIT
) -> DenseTensor:
    """Explicit 0/1 tensor of the spec (guarded: n^2K entries)."""
    n = spec.n
    if n ** spec.order > limit:
        raise ValueError(
            f"materialize refused: {n}^{spec.order} entries exceed limit {limit}"
        )
    goal = spec.target - spec.order
    moments = lambda s: 1 if s == goal else 0
    reversed_shifts = [v[::-1] for v in spec.vectors]
    return hankel_tensor(moments, n, spec.order, reversed_shifts)

