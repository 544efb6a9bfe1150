"""Sparse Kronecker-delta hyperdeterminant engine.

A spec is an ordered list of 2K weakly decreasing integer vectors of length n.
The implied order-2K tensor has entry 1 at (i_1, ..., i_2K) exactly when

    v1[n-i_1+1] + ... + v2K[n-i_2K+1] + i_1 + ... + i_2K == (2K-1)n + 1

(1-based positions) and 0 elsewhere. Its hyperdeterminant is evaluated by the
generalized Laplace recursion pivoted on i_1 = 1, with memoization keyed on
the permutation/shift symmetry classes, a block-factorization shortcut, and
grouped enumeration of the surviving index tuples.

The block split is tried only in `_lookup`: on the spec `evaluate` is given
and on the blocks of its splits, whose companions are all zero vectors when
the spec is a coefficient's. Pivot children go straight to the pivot sum,
because the split hardly ever applies to them: on the (8,1) table, trying it
on every miss (34,210 `_split` calls) saves 5 of 34,215 misses, while never
trying it at all would raise them to 36,667.

The weight (K-1)n(n-1) is checked once, on the spec `evaluate` is given:
the pivot children and the split blocks of a spec of that weight have it
too. A slot vector is one of the spec's 2K vectors; each distinct one,
shifted to end in 0, is interned once per process as a prime, the i-th new
vector taking the i-th prime. The memo key of a spec is the product of its
slot primes, which by unique factorization fixes the multiset of its slots
as a sorted tuple of ids would, with no sort. The primes fix each vector up
to its shift, and the weight fixes the sum of the shifts, so the key needs
no total shift. Each group-table row carries the product of the primes it
strikes, so the pivot enumeration builds each child's key with one multiply
per group. `_pivot_sum` probes the memo with each child's key in its own
loop and recurses only on a miss; a child's vectors are built only then,
from the group rows its enumeration chose. The prime table and the group
tables are process-wide and unbounded: the (8,1) table interns 6,406 slot
vectors, and 456 cold coefficients of (9,1), (5,4) and (7,2) 1,811.

The children of one pivot differ only in what the companions, the vectors
other than the pivot, strike; the pivot's own child is the same for all of
them. That companion side depends only on the sorted companions and on
need = (2K-1)n - first[-1], so each MemoCache keeps it in `pivots`, keyed on
the pair, for as long as the memo lives. A table comes back to most pairs
(79% of the (8,1) table's sights of a pair are returns to one it holds), a
cold coefficient to few (6% over the benchmark's 480 pooled ones), so the
memo chooses from what it has seen. While its returns number at most half
the pairs it holds, a pair's first sight enumerates from the pivot child's
prime and leaves a marker, and the second keeps, in one flat tuple, each
distinct child's product of struck slot primes, struck vectors and signed
count. Beyond that line a first sight keeps that tuple at once, so no pair
is enumerated twice. A later sight multiplies each child's product by the
pivot child's prime to get its memo key, so keys, their order, the vectors
each key is evaluated on and the memo counts are those of a fresh
enumeration.
"""

from __future__ import annotations

import functools
import itertools
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import factorial, isqrt, prod
from typing import Iterator, Sequence

from .hyperdet import DenseTensor, hankel_tensor
from .partitions import IntVec, as_decreasing

DEFAULT_MATERIALIZE_LIMIT = 1 << 21


@dataclass(frozen=True)
class DeltaSpec:
    """Implicit sparse tensor given by its 2K decreasing vectors."""

    vectors: tuple[IntVec, ...]

    def __post_init__(self):
        raw = tuple(map(tuple, self.vectors))
        # each distinct vector is checked once: a coefficient's spec repeats
        # its zero vector 2k+1 times
        checked = {v: as_decreasing(v) for v in dict.fromkeys(raw)}
        vecs = tuple(checked[v] for v in raw)
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
    """Map from canonical keys to evaluated values, counting hits and misses.

    Unbounded: every stored value stays for the life of the cache, so the
    engine evaluates each subproblem at most once per cache and stores every
    miss. Inserts are idempotent: re-inserting a key with a conflicting value
    is a bug and raises. `pivots` keeps, for the same lifetime, the companion
    side of pivot enumerations (see _pivot_sum); it changes no key, value or
    count of the memo.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._data: dict = {}
        # (sorted companion vectors, need) -> the kept companion side of
        # their pivot enumeration, or None after a first sight that did not
        # keep it; returns counts the sights of a pair already held. See
        # _pivot_sum
        self.pivots: dict = {}
        self.returns = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value) -> None:
        if self._data.setdefault(key, value) != value:
            raise RuntimeError(f"conflicting cache insert for {key}")


def weight_ok(spec: DeltaSpec) -> bool:
    """Necessary condition for a nonzero value: total entry sum (K-1)n(n-1)."""
    n = spec.n
    return sum(map(sum, spec.vectors)) == (spec.half - 1) * n * (n - 1)


def _primes() -> Iterator[int]:
    """The primes in increasing order, sieved one block of integers at a time.
    A block is an eighth of the integers below it, and at least 4096; only
    its sieve is held, never the primes given out."""
    lo = 2
    while True:
        hi = lo + max(1 << 12, lo >> 3)
        sieve = bytearray([1]) * (hi - lo)
        for p in range(2, isqrt(hi - 1) + 1):
            start = max(p * p, -(-lo // p) * p)
            sieve[start - lo :: p] = bytes(len(range(start, hi, p)))
        yield from itertools.compress(range(lo, hi), sieve)
        lo = hi


# Slot vectors shifted to end in 0, each mapped to its prime. The i-th new
# vector gets the i-th prime, so primes differ between processes; keys never
# leave the process that built them. A prime is taken under the lock and only
# for a vector not yet in the table, so threads interning at once never share
# one and none is skipped.
_SLOT_IDS: dict[IntVec, int] = {}
_NEW_SLOT_IDS = _primes()
_SLOT_LOCK = threading.Lock()


@functools.cache
def _slot(v: IntVec) -> int:
    """Prime of one slot vector, standing for v shifted to end in 0."""
    off = v[-1] if v else 0
    norm = tuple(x - off for x in v) if off else v
    with _SLOT_LOCK:
        prime = _SLOT_IDS.get(norm)
        if prime is None:
            prime = _SLOT_IDS[norm] = next(_NEW_SLOT_IDS)
    return prime


def _memo_key(vectors: tuple[IntVec, ...]) -> int:
    """Quotient of a spec of the right weight by vector permutations and
    zero-sum entry shifts: the product of its slot primes, which fixes the
    multiset of slots by unique factorization. The primes fix each vector up
    to its offset, and the weight fixes the sum of the offsets, so no total
    shift needs to be kept."""
    return prod(map(_slot, vectors))


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
    # the other slots' m-tails summed, for m = 1, 2, ...: suffix sums of
    # their column sums
    tails = itertools.accumulate(reversed(list(map(sum, zip(*rest)))))
    for m, head, tail in zip(range(1, n), itertools.accumulate(first), tails):
        if head + tail != base * m * (2 * n - m - 1):
            continue
        off = 2 * base * (n - m)
        left = (tuple(x - off for x in first[:m]),) + tuple(v[n - m :] for v in rest)
        right = (first[m:],) + tuple(v[: n - m] for v in rest)
        sign = -1 if (m * (n - m)) % 2 else 1
        return left, right, sign
    return None


# ---------------------------------------------------------------------------
# evaluation


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


@functools.cache
def _group_table(v: IntVec, count: int):
    """All index multisets of one companion-vector group, sorted by value sum.

    Returns (sums, rows, by_sum). Rows are (value_sum, signed_count,
    child_vectors, child_ids) where value_sum adds v[n-i+1] + i over the
    multiset, signed_count is its number of arrangements times
    (-1)^(index sum), child_vectors are the struck slot vectors and
    child_ids the product of their slot primes. sums lists the rows' value
    sums, and by_sum maps a value sum to its rows in table order. Tables
    depend on (v, count) alone, so they are kept for the whole process and
    shared by every MemoCache.
    """
    n = len(v)
    taus = [0] * (n + 1)
    kids: list[IntVec] = [()] * (n + 1)
    for i in range(1, n + 1):
        cut = n - i
        taus[i] = v[cut] + i
        kids[i] = tuple(x + 1 for x in v[:cut]) + v[cut + 1 :]
    rows = []
    for combo in itertools.combinations_with_replacement(range(1, n + 1), count):
        tau = 0
        isum = 0
        for i in combo:
            tau += taus[i]
            isum += i
        struck = tuple(kids[i] for i in combo)
        arr = _arrangements(combo)
        rows.append((
            tau,
            -arr if isum & 1 else arr,
            struck,
            prod(map(_slot, struck)),
        ))
    rows.sort(key=lambda r: r[0])
    by_sum: dict[int, list] = {}
    for row in rows:
        by_sum.setdefault(row[0], []).append(row)
    return [r[0] for r in rows], rows, by_sum


# (sums, rows) of a group that strikes nothing: stands in for the
# second-to-last group when all companion vectors are equal
_LONE_GROUP = ([0], [(0, 1, (), 1)])


def _pivot_children(rest: tuple[IntVec, ...], need: int, ids: int):
    """Distinct children of the i_1 = 1 pivot with signed multiplicities, as
    far as the companions decide them.

    rest is the sorted companion vectors, the spec's vectors other than the
    pivot. With i_1 = 1 the delta condition asks the companions' terms
    v[n-i+1] + i to add up to need = (2K-1)n - first[-1]. Groups equal
    companion vectors and enumerates index multisets group by group, keeping
    only partial choices whose remaining groups can still meet need; the
    last two groups are matched together, by a lookup of what is left in the
    last group's value sums. Each child's key is ids, a product of slot
    primes, times the struck companions' primes, multiplied from the
    products the group tables carry; children that share a key are merged.
    Returns a dict from each key to [signed_count, chain], in order of first
    appearance; the count includes the pivot's sign and may be 0. The chain
    stands for the first child seen with that key, in lexicographic order of
    the groups' rows: nested (earlier, struck_vectors) pairs that
    _child_vectors turns into the struck companions, in group order.
    """
    groups: list[tuple[IntVec, int]] = []
    for v in rest:
        if groups and groups[-1][0] == v:
            groups[-1] = (v, groups[-1][1] + 1)
        else:
            groups.append((v, 1))
    tables = [_group_table(v, c) for v, c in groups]

    last = len(tables) - 1
    suff_min = [0] * (last + 2)
    suff_max = [0] * (last + 2)
    for g in range(last, -1, -1):
        sums = tables[g][0]
        suff_min[g] = suff_min[g + 1] + sums[0]
        suff_max[g] = suff_max[g + 1] + sums[-1]

    # (left, signed_count, chain, ids); the sign starts at i_1 = 1
    partial = [(need, -1, None, ids)]
    for g in range(last - 1):
        sums, rows, _ = tables[g]
        above = suff_max[g + 1]
        below = suff_min[g + 1]
        grown = []
        for left, mult, chain, ids in partial:
            lo = bisect_left(sums, left - above)
            hi = bisect_right(sums, left - below)
            for tau, arr, kids, kid_ids in rows[lo:hi]:
                grown.append((left - tau, mult * arr, (chain, kids), ids * kid_ids))
        partial = grown

    # the last group's value sum must meet what the second-to-last leaves
    sums, rows = tables[last - 1][:2] if last else _LONE_GROUP
    above = suff_max[last]
    below = suff_min[last]
    by_sum = tables[last][2]
    acc: dict = {}
    for left, mult, chain, ids in partial:
        lo = bisect_left(sums, left - above)
        hi = bisect_right(sums, left - below)
        for tau, arr, kids, kid_ids in rows[lo:hi]:
            ends = by_sum.get(left - tau)
            if ends is None:
                continue
            mid_mult = mult * arr
            mid_ids = ids * kid_ids
            for _, end_arr, end_kids, end_ids in ends:
                key = mid_ids * end_ids
                coeff = mid_mult * end_arr
                slot = acc.get(key)
                if slot is None:
                    acc[key] = [coeff, ((chain, kids), end_kids)]
                else:
                    slot[0] += coeff
    return acc


def _kept_children(rest: tuple[IntVec, ...], need: int) -> tuple:
    """The companion side of a pivot enumeration in the flat form the
    MemoCache keeps: for each child with a nonzero count, in order of first
    appearance, the product of its struck slot primes, its struck vectors and
    its signed count, all in one tuple."""
    flat = []
    for ids, (coeff, chain) in _pivot_children(rest, need, 1).items():
        if coeff:
            flat.append(ids)
            flat += _child_vectors(chain)
            flat.append(coeff)
    return tuple(flat)


def _child_vectors(chain) -> tuple[IntVec, ...]:
    """The struck companion vectors of a child from its chain, in group
    order."""
    vectors = ()
    while chain is not None:
        chain, kids = chain
        vectors = kids + vectors
    return vectors


def _widest_first(vectors: tuple[IntVec, ...]) -> tuple[IntVec, ...]:
    """The spec with its first vector of the widest entry spread moved to the
    pivot slot (permutation symmetry)."""
    spreads = [v[0] - v[-1] for v in vectors]
    widest = spreads.index(max(spreads))
    if widest:
        vectors = (vectors[widest],) + vectors[:widest] + vectors[widest + 1 :]
    return vectors


def _evaluate(vectors: tuple[IntVec, ...], key, cache: MemoCache) -> int:
    """Value of a spec of dimension n >= 2 that missed the memo under key, by
    its pivot sum, stored there before it is returned.

    The spec's weight is not checked: the top-level one is, and pivot
    children and split blocks of a spec of the right weight have the right
    weight.
    """
    value = _pivot_sum(_widest_first(vectors), len(vectors) // 2, len(vectors[0]), cache)
    cache.put(key, value)
    return value


def _pivot_sum(vectors: tuple[IntVec, ...], half: int, n: int, cache: MemoCache) -> int:
    """Signed sum of the values of the i_1 = 1 pivot children.

    Each child's key is probed here, and the child's vectors are built only
    on a miss. The companion side of the enumeration depends only on the
    sorted companions and need, and the pivot's child is the same for every
    child, so a child's key is the product of its struck companion primes
    times the pivot child's prime. While the returns to (companions, need)
    pairs number at most half the pairs held, the first sight of a pair
    enumerates from that prime and leaves a marker in cache.pivots, and the
    second keeps the companion side there; beyond that, the first sight
    keeps it at once. Later sights reuse it.
    """
    first = vectors[0]
    need = (2 * half - 1) * n - first[-1]
    rest = tuple(sorted(vectors[1:]))
    if n == 2:
        # children of dimension 1 are worth 1 and never touch the memo
        return sum(coeff for coeff, _ in _pivot_children(rest, need, 1).values())
    drop = 2 * (half - 1)
    child_first = tuple([x - drop for x in first[:-1]])
    pivot_id = _slot(child_first)
    get = cache.get
    value = 0
    # one hash of the companion key: setdefault leaves the marker on a first
    # sight, and the size of the dict tells whether it did
    pivots = cache.pivots
    size = len(pivots)
    pivot_key = (rest, need)
    kept = pivots.setdefault(pivot_key, None)
    if len(pivots) == size:
        cache.returns += 1
    elif 2 * cache.returns <= size:
        # few pairs come back so far: enumerate once with the pivot child's
        # id and leave the marker
        for child_key, (coeff, chain) in _pivot_children(rest, need, pivot_id).items():
            if not coeff:
                continue
            sub = get(child_key)
            if sub is None:
                child = (child_first,) + _child_vectors(chain)
                sub = _evaluate(child, child_key, cache)
            if sub:
                value += coeff * sub
        return value
    if kept is None:
        kept = pivots[pivot_key] = _kept_children(rest, need)
    width = len(rest)
    for at in range(0, len(kept), width + 2):
        child_key = kept[at] * pivot_id
        sub = get(child_key)
        if sub is None:
            child = (child_first,) + kept[at + 1 : at + 1 + width]
            sub = _evaluate(child, child_key, cache)
        if sub:
            value += kept[at + 1 + width] * sub
    return value


def _lookup(vectors: tuple[IntVec, ...], cache: MemoCache, factorize: bool) -> int:
    """Value of a spec of the right weight: 1 below dimension 2, else from
    the memo or evaluated into it. Only here is the block split tried: on the
    spec evaluate is given and on the blocks of its splits, never on a pivot
    child."""
    if len(vectors[0]) < 2:
        return 1
    key = _memo_key(vectors)
    value = cache.get(key)
    if value is not None:
        return value
    if factorize:
        vectors = _widest_first(vectors)
        found = _split(vectors, len(vectors) // 2, len(vectors[0]))
        if found is not None:
            left, right, sign = found
            lval = _lookup(left, cache, factorize)
            value = sign * lval * _lookup(right, cache, factorize) if lval else 0
            cache.put(key, value)
            return value
    return _evaluate(vectors, key, cache)


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
    if not weight_ok(spec):
        return 0
    return _lookup(spec.vectors, cache, factorize)


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

