"""Literal reference sums the suite checks the library against.

`pivot_tuples`, `child_spec` and `iter_subspecs` spell out the i_1 pivot step
of the generalized Laplace recursion tuple by tuple, without the grouping,
merging or factorization of the engine. `canonical_key` spells out the
symmetry class the engine's memo key stands for, with the vectors themselves
in place of interned slot ids. `det_direct_reference` is the p-fold
permutation sum with the explicit 1/n! factor, without the normalization of
`det_direct`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Iterator, Sequence

from vanschur.delta_engine import DeltaSpec, weight_ok
from vanschur.hyperdet import DEFAULT_TERM_LIMIT, BudgetError, DenseTensor, Value
from vanschur.partitions import IntVec


def canonical_key(vectors: tuple[IntVec, ...]):
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


def pivot_tuples(spec: DeltaSpec, i1: int) -> list[IntVec]:
    """All index tuples (i1, i_2, ..., i_2K) hitting the delta target.

    Fixes i_2 .. i_{2K-1} and solves for the last index; the per-slot value
    i -> v[n-i+1] + i is strictly increasing, so there is at most one
    solution for each prefix.
    """
    n = spec.n
    if not 1 <= i1 <= n:
        raise ValueError(f"i1 must lie in 1..{n}")
    vectors = spec.vectors
    remaining = spec.target - vectors[0][n - i1] - i1
    last = vectors[-1]
    solve = {last[n - i] + i: i for i in range(1, n + 1)}
    middle = vectors[1:-1]
    out: list[IntVec] = []

    def rec(slot: int, prefix: tuple[int, ...], left: int) -> None:
        if slot == len(middle):
            i_last = solve.get(left)
            if i_last is not None:
                out.append((i1,) + prefix + (i_last,))
            return
        v = middle[slot]
        for i in range(1, n + 1):
            rec(slot + 1, prefix + (i,), left - (v[n - i] + i))

    rec(0, (), remaining)
    return out


def child_spec(spec: DeltaSpec, tup: Sequence[int]) -> DeltaSpec:
    """Dimension n-1 spec left after striking the tuple's slice per slot.

    Slot 1 deletes position n-i+1, lowering earlier entries by 2(K-1) and
    later ones by 2(K-1)+1; every other slot deletes its position and raises
    the earlier entries by 1.
    """
    n = spec.n
    tup = tuple(tup)
    if len(tup) != spec.order or any(not 1 <= i <= n for i in tup):
        raise ValueError(f"bad index tuple {list(tup)}")
    total = sum(spec.vectors[j][n - tup[j]] for j in range(spec.order)) + sum(tup)
    if total != spec.target:
        raise ValueError(f"tuple {list(tup)} misses the delta target (caller bug)")
    drop = 2 * (spec.half - 1)
    children = []
    for j, (v, i) in enumerate(zip(spec.vectors, tup)):
        cut = n - i
        if j == 0:
            children.append(
                tuple(x - drop for x in v[:cut]) + tuple(x - drop - 1 for x in v[cut + 1 :])
            )
        else:
            children.append(tuple(x + 1 for x in v[:cut]) + v[cut + 1 :])
    return DeltaSpec(tuple(children))


def iter_subspecs(spec: DeltaSpec) -> Iterator[DeltaSpec]:
    """Every spec reachable through the pivot recursion, once per key."""
    seen = set()
    stack = [spec]
    while stack:
        cur = stack.pop()
        key = canonical_key(cur.vectors)
        if key in seen:
            continue
        seen.add(key)
        yield cur
        if cur.n >= 2 and weight_ok(cur):
            for tup in pivot_tuples(cur, 1):
                stack.append(child_spec(cur, tup))


def _sign(perm: Sequence[int]) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def det_direct_reference(t: DenseTensor, term_limit: int = DEFAULT_TERM_LIMIT) -> Value:
    """Literal p-fold permutation sum with the explicit 1/n! factor."""
    n, p = t.dim, t.order
    if p % 2:
        return 0
    if n == 0:
        return 1
    if factorial(n) ** p > term_limit:
        raise BudgetError(f"det_direct_reference refused: {n}!^{p} terms")
    signed = [(perm, _sign(perm)) for perm in permutations(range(1, n + 1))]
    total = Fraction(0)
    for sigmas in product(signed, repeat=p):
        sign = 1
        for _, s in sigmas:
            sign = -sign if s < 0 else sign
        term = Fraction(sign)
        for i in range(1, n + 1):
            term *= t.entries[tuple(sig[i - 1] for sig, _ in sigmas)]
        total += term
    total /= factorial(n)
    return int(total) if total.denominator == 1 else total
