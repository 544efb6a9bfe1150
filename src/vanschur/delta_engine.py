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
on every miss (34,221 `_split` calls) saves 5 of 34,226 misses, while never
trying it at all would raise them to 36,678.

The weight (K-1)n(n-1) is checked once, on the spec `evaluate` is given:
the pivot children and the split blocks of a spec of that weight have it
too. A slot vector is one of the spec's 2K vectors; each distinct one,
shifted to end in 0, is interned once per process as a prime, the i-th new
vector taking the i-th prime, in `_SLOT_IDS`, the one table of slot vectors.
The memo key of a spec is the product of its slot primes, which by unique
factorization fixes the multiset of its slots as a sorted tuple of ids
would, with no sort. The primes fix each vector up to its shift, and the
weight fixes the sum of the shifts, so the key needs no total shift. Each
group-table row carries the product of the primes it strikes, so the pivot
enumeration builds each child's key with one multiply per group.

The pivot enumeration groups equal companions and orders the groups by
their number of companions, ties in sorted order, with one stable sort. It
walks the groups' tables in turn, all but the last, which is looked up by
the value sum the others leave: one probe where a walk costs a row. So the
group with the most companions, whose table is the largest, is never
walked. Partials that leave the same sum to the last two groups share one
list of their matches, made at the first and multiplied out once per pair;
a single walked group of single companions leaves distinct sums and skips
the list. A child's struck vectors come out in group order. On the 234 cold
coefficients of the benchmark's seed-1 `coeff` sample the rows walked fall
from 2,096,531, before the last group was looked up, to 997,173 over
45,868 enumerations. Nothing is kept past the call.

`_pivot_sum` probes the memo with each child's key in its own loop and
recurses only on a miss; a child's vectors are built only then, from the
group rows its enumeration chose, and the child goes down with the prime of
its first vector, which the pivot sum knew. A pivot child's prime is looked
up from the pivot's prime in `_HEAD_IDS`, with no vector built or shifted;
the pivot's prime is looked up from its vector only when `_widest_first`
moves another vector to the pivot slot. The prime table and the group
tables are process-wide and unbounded: the (8,1) table interns 6,423 slot
vectors, and 456 cold coefficients of (9,1), (5,4) and (7,2), each with a
fresh MemoCache in one process, 1,840.

The children of one pivot differ only in what the companions, the vectors
other than the pivot, strike; the pivot's own child is the same for all of
them. Up to a shift of each struck vector, that companion side depends only
on the companions up to a shift of each, which the product of their slot
primes fixes, and on the shifted need, need = (2K-1)n - first[-1] less the
sum of the companions' last entries. Each MemoCache keeps it in `pivots`,
for as long as the memo lives, keyed on one int: the companions' primes
times the prime of the vector (shifted need, 0), which no companion can be,
since a pivot sum that keeps anything has n >= 3. A table comes
back to most pairs (82% of the (8,1) table's sights of a pair are returns to
one it holds), a cold coefficient to few (12% over the benchmark's 480
pooled ones), so the memo chooses from what it has seen. While its returns
number at most half the pairs it holds, a pair's first sight enumerates
from the pivot child's prime and leaves a marker, and the second keeps, in
one flat tuple, the need it was enumerated for and each distinct child's
product of struck slot primes, struck vectors and signed count. Beyond that
line a first sight keeps that tuple at once, so no pair is enumerated
twice. A later sight multiplies each child's product by the pivot child's
prime to get its memo key, so keys, their counts and the memo counts are
those of a fresh enumeration. Its companions may differ from the kept
ones by a shift of each vector; the shifts add up to the difference in
need, and the sight adds that sum to the pivot child's first vector
instead, a zero-sum shift of the child that leaves its tensor unchanged.
Only the order of the children and of a child's vectors can differ from a
fresh enumeration's, which can move a tie of `_widest_first` and with it a
few memo counts: 2 of the 480 pooled coefficients, and no table.

The ints a MemoCache keeps, its values and the kept products, are interned
in the cache, one object per distinct value, and go with it: the (9,1)
table stores 299,118 values with 10,676 distinct ones.
"""

from __future__ import annotations

import functools
import itertools
import threading
from bisect import bisect_left, bisect_right
from math import factorial, isqrt, prod
from operator import itemgetter
from typing import Iterator, Sequence

from .partitions import Frozen, IntVec, as_decreasing


class DeltaSpec(Frozen):
    """Implicit sparse tensor given by its 2K decreasing vectors."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Sequence[Sequence[int]]):
        raw = tuple(map(tuple, vectors))
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
    def half(self) -> int:
        return len(self.vectors) // 2

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
    count of the memo. `ints` holds one object per distinct int the cache
    keeps, its values and the products in its kept companion sides.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._data: dict = {}
        # product of the companions' slot primes and the prime of the vector
        # (need less the sum of the companions' offsets, 0) -> the kept
        # companion side of their pivot enumeration, or None after a first
        # sight that did not keep it; returns counts the sights of a pair
        # already held. See _pivot_sum
        self.pivots: dict = {}
        self.returns = 0
        self.ints: dict[int, int] = {}

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
        value = self.ints.setdefault(value, value)
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


# Slot vectors shifted to end in 0, each mapped to its prime: the one table of
# slot vectors. The i-th new vector gets the i-th prime, so primes differ
# between processes; keys never leave the process that built them. A prime is
# taken under the lock and only for a vector not yet in the table, so threads
# interning at once never share one and none is skipped.
_SLOT_IDS: dict[IntVec, int] = {}
_NEW_SLOT_IDS = _primes()
_SLOT_LOCK = threading.Lock()
# the prime of a slot vector's head, the vector without its last entry, keyed
# on the vector's prime: what every pivot child's first vector stands for.
# Both are functions of the slot, so threads that fill an entry at once fill
# in the same prime
_HEAD_IDS: dict[int, int] = {}


def _slot(v: IntVec) -> int:
    """Prime of one slot vector, standing for v shifted to end in 0."""
    off = v[-1] if v else 0
    if off:
        v = tuple([x - off for x in v])
    prime = _SLOT_IDS.get(v)
    if prime is None:
        with _SLOT_LOCK:
            prime = _SLOT_IDS.get(v)
            if prime is None:
                prime = _SLOT_IDS[v] = next(_NEW_SLOT_IDS)
    return prime


def _head(first_id: int, first: IntVec) -> int:
    """Prime of first without its last entry, first's prime being first_id."""
    head = _HEAD_IDS.get(first_id)
    if head is None:
        head = _HEAD_IDS[first_id] = _slot(first[:-1])
    return head


def _memo_key(vectors: tuple[IntVec, ...]) -> int:
    """Quotient of a spec of the right weight by vector permutations and
    zero-sum entry shifts: the product of its slot primes, which fixes the
    multiset of slots by unique factorization. The primes fix each vector up
    to its offset, and the weight fixes the sum of the offsets, so no total
    shift needs to be kept. Each distinct vector is looked up once: a
    coefficient's spec repeats its zero vector 2k+1 times."""
    return prod([_slot(v) ** vectors.count(v) for v in set(vectors)])


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
    kid_ids = [1] * (n + 1)
    for i in range(1, n + 1):
        cut = n - i
        taus[i] = v[cut] + i
        kids[i] = tuple(x + 1 for x in v[:cut]) + v[cut + 1 :]
        kid_ids[i] = _slot(kids[i])
    rows = []
    for combo in itertools.combinations_with_replacement(range(1, n + 1), count):
        tau = 0
        isum = 0
        for i in combo:
            tau += taus[i]
            isum += i
        arr = _arrangements(combo)
        rows.append((
            tau,
            -arr if isum & 1 else arr,
            tuple([kids[i] for i in combo]),
            prod([kid_ids[i] for i in combo]),
        ))
    rows.sort(key=lambda r: r[0])
    by_sum: dict[int, list] = {}
    for row in rows:
        by_sum.setdefault(row[0], []).append(row)
    return [r[0] for r in rows], rows, by_sum


_COUNT = itemgetter(1)

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
    only partial choices whose remaining groups can still meet need. The
    groups are taken in order of their number of companions, ties in sorted
    order, so the last group has the largest table; it is looked up, never
    walked: each row of the second-to-last group finds its matches by what
    it leaves among the last group's value sums. Partials that leave the
    same sum share one list of (second-to-last row, last row) matches, each
    with its signed count and product of primes multiplied once. Each
    child's key is ids, a product of slot primes, times the struck
    companions' primes, multiplied from the products the group tables carry;
    children that share a key are merged. Returns a dict from each key to
    [signed_count, chain], in order of first appearance; the count includes
    the pivot's sign and may be 0. The chain stands for the first child seen
    with that key in the walk: nested (earlier, struck_vectors) pairs rooted
    at None, that _child_vectors turns into the struck companions in group
    order.
    """
    groups: list[list] = []
    prev = None
    for v in rest:
        if v == prev:
            groups[-1][1] += 1
        else:
            groups.append([v, 1])
            prev = v
    # the group with the most companions, whose table is the largest, goes
    # last, to be looked up; ties keep the sorted order
    groups.sort(key=_COUNT)
    tables = list(itertools.starmap(_group_table, groups))
    sums, _, by_sum = tables.pop()
    # what the groups after the one walked can add, at least and at most
    below = sums[0]
    above = sums[-1]
    sums, rows = tables.pop()[:2] if tables else _LONE_GROUP

    # (left, signed_count, chain, ids); the sign starts at i_1 = 1
    partial = [(need, -1, None, ids)]
    if tables:
        bounds = []
        low = below + sums[0]
        high = above + sums[-1]
        for table in reversed(tables):
            bounds.append((low, high))
            low += table[0][0]
            high += table[0][-1]
        for (walk_sums, walk_rows, _), (low, high) in zip(tables, reversed(bounds)):
            grown = []
            for left, mult, chain, ids in partial:
                lo = bisect_left(walk_sums, left - high)
                hi = bisect_right(walk_sums, left - low)
                for tau, arr, kids, kid_ids in walk_rows[lo:hi]:
                    grown.append((left - tau, mult * arr, (chain, kids), ids * kid_ids))
            partial = grown

    # the last group's value sum must meet what the second-to-last leaves
    acc: dict = {}
    # a single walked group of single companions leaves distinct sums: its
    # value sums strictly increase
    if not tables or (len(tables) == 1 and groups[0][1] == 1):
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
    matched: dict = {}
    for left, mult, chain, ids in partial:
        pairs = matched.get(left)
        if pairs is None:
            pairs = matched[left] = []
            lo = bisect_left(sums, left - above)
            hi = bisect_right(sums, left - below)
            for tau, arr, kids, kid_ids in rows[lo:hi]:
                ends = by_sum.get(left - tau)
                if ends is not None:
                    for _, end_arr, end_kids, end_ids in ends:
                        pairs.append((arr * end_arr, kid_ids * end_ids, kids, end_kids))
        for pair_mult, pair_ids, kids, end_kids in pairs:
            key = ids * pair_ids
            coeff = mult * pair_mult
            slot = acc.get(key)
            if slot is None:
                acc[key] = [coeff, ((chain, kids), end_kids)]
            else:
                slot[0] += coeff
    return acc


def _kept_children(rest: tuple[IntVec, ...], need: int, ints: dict) -> tuple:
    """The companion side of a pivot enumeration in the flat form the
    MemoCache keeps: need, and then for each child with a nonzero count, in
    order of first appearance, the product of its struck slot primes,
    interned in ints, its struck vectors and its signed count, all in one
    tuple."""
    intern = ints.setdefault
    flat = [need]
    for ids, (coeff, chain) in _pivot_children(rest, need, 1).items():
        if coeff:
            flat.append(intern(ids, ids))
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
    pivot slot (permutation symmetry); vectors itself when that is its
    first."""
    spreads = [v[0] - v[-1] for v in vectors]
    widest = spreads.index(max(spreads))
    if widest:
        vectors = (vectors[widest],) + vectors[:widest] + vectors[widest + 1 :]
    return vectors


def _evaluate(vectors: tuple[IntVec, ...], key, first_id, cache: MemoCache) -> int:
    """Value of a spec of dimension n >= 2 that missed the memo under key, by
    its pivot sum, stored there before it is returned. first_id is the prime
    of vectors[0], or None when it is not known.

    The spec's weight is not checked: the top-level one is, and pivot
    children and split blocks of a spec of the right weight have the right
    weight.
    """
    pivoted = _widest_first(vectors)
    if pivoted is not vectors:
        first_id = None
    value = _pivot_sum(pivoted, first_id, key, cache)
    cache.put(key, value)
    return value


_LAST = itemgetter(-1)


def _pivot_sum(vectors: tuple[IntVec, ...], first_id, key, cache: MemoCache) -> int:
    """Signed sum of the values of the i_1 = 1 pivot children of a spec whose
    memo key is key and whose first vector's prime is first_id (None when not
    known).

    Each child's key is probed here, and the child's vectors are built only
    on a miss. The companion side of the enumeration is fixed, up to a shift
    of each struck vector, by the companions' primes and the shifted need,
    need less the companions' offsets, and the pivot's child is the same for
    every child, so a child's key is the product of its struck companion
    primes times the pivot child's prime. While the returns to such pairs
    number at most half the pairs held, the first sight of a pair enumerates
    from that prime and leaves a marker in cache.pivots, and the second
    keeps the companion side there; beyond that, the first sight keeps it at
    once. Later sights reuse it.
    """
    first = vectors[0]
    n = len(first)
    half = len(vectors) // 2
    need = (2 * half - 1) * n - first[-1]
    if n == 2:
        # children of dimension 1 are worth 1 and never touch the memo
        rest = tuple(sorted(vectors[1:]))
        return sum(coeff for coeff, _ in _pivot_children(rest, need, 1).values())
    if first_id is None:
        first_id = _slot(first)
    pivot_id = _head(first_id, first)
    drop = 2 * (half - 1)
    get = cache.get
    value = 0
    # the companions' primes times the prime of the vector (shifted need, 0),
    # which no companion can be: a pivot sum's vectors have n >= 3 entries
    shifted = (2 * half - 1) * n - sum(map(_LAST, vectors))
    pivot_key = key // first_id * _slot((shifted, 0))
    # one hash of the companion key: setdefault leaves the marker on a first
    # sight, and the size of the dict tells whether it did
    pivots = cache.pivots
    size = len(pivots)
    kept = pivots.setdefault(pivot_key, None)
    if len(pivots) == size:
        cache.returns += 1
    elif 2 * cache.returns <= size:
        # few pairs come back so far: enumerate once with the pivot child's
        # id and leave the marker
        child_first = tuple([x - drop for x in first[:-1]])
        rest = tuple(sorted(vectors[1:]))
        for child_key, (coeff, chain) in _pivot_children(rest, need, pivot_id).items():
            if not coeff:
                continue
            sub = get(child_key)
            if sub is None:
                child = (child_first,) + _child_vectors(chain)
                sub = _evaluate(child, child_key, pivot_id, cache)
            if sub:
                value += coeff * sub
        return value
    if kept is None:
        rest = tuple(sorted(vectors[1:]))
        kept = pivots[pivot_key] = _kept_children(rest, need, cache.ints)
    # the kept side may have been enumerated from companions that differ from
    # these by a shift of each vector; the shifts add up to need - kept[0],
    # and shifting the pivot child's first vector by that sum instead leaves
    # each child's tensor unchanged
    lower = drop - need + kept[0]
    child_first = None
    width = len(vectors) - 1
    for at in range(1, len(kept), width + 2):
        child_key = kept[at] * pivot_id
        sub = get(child_key)
        if sub is None:
            if child_first is None:
                child_first = tuple([x - lower for x in first[:-1]])
            child = (child_first,) + kept[at + 1 : at + 1 + width]
            sub = _evaluate(child, child_key, pivot_id, cache)
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
    return _evaluate(vectors, key, None, cache)


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

