"""Exact dense hyperdeterminants: direct definition and generalized Laplace expansion.

Oracle-grade code: everything is exact (ints or Fractions), nothing here is
meant to scale past small dimensions. The sparse engine in delta_engine is
checked against this module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from typing import Callable, Iterable, Sequence

IntVec = tuple[int, ...]
Value = int | Fraction

DEFAULT_TERM_LIMIT = 10**8


class BudgetError(RuntimeError):
    """Raised when an exact computation would exceed its size guard."""


def as_index_set(indices: Iterable[int], dim: int) -> IntVec:
    s = tuple(int(i) for i in indices)
    if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
        raise ValueError(f"index set not strictly increasing: {list(s)}")
    if s and (s[0] < 1 or s[-1] > dim):
        raise ValueError(f"index set {list(s)} out of range 1..{dim}")
    return s


@dataclass(frozen=True)
class DenseTensor:
    """Order-p tensor over {1..n}^p with exact entries, stored densely."""

    order: int
    dim: int
    entries: dict[IntVec, Value]

    def __post_init__(self):
        expected = self.dim**self.order
        if len(self.entries) != expected:
            raise ValueError(
                f"tensor needs {expected} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_function(
        cls, order: int, dim: int, fn: Callable[[IntVec], Value]
    ) -> "DenseTensor":
        idx = range(1, dim + 1)
        return cls(order, dim, {t: fn(t) for t in product(idx, repeat=order)})


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[tuple[IntVec, int], ...]:
    out = []
    for perm in permutations(range(1, n + 1)):
        inv = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if perm[a] > perm[b]
        )
        out.append((perm, -1 if inv % 2 else 1))
    return tuple(out)


def det_direct(t: DenseTensor, term_limit: int = DEFAULT_TERM_LIMIT) -> Value:
    """Hyperdeterminant by the alternated-sum definition, exactly.

    Identically zero for odd order. The permutation on the first index slot
    is normalized away, which folds the 1/n! factor and cuts the loop count
    from n!^p to n!^(p-1); the value is unchanged.
    """
    n, p = t.dim, t.order
    if p % 2:
        warnings.warn(f"hyperdeterminant of odd order {p} is identically zero")
        return 0
    if n == 0:
        return 1
    if factorial(n) ** p > term_limit:
        raise BudgetError(
            f"det_direct refused: {n}!^{p} terms exceed limit {term_limit}"
        )
    signed = _signed_permutations(n)
    entries = t.entries
    total: Value = 0
    for taus in product(signed, repeat=p - 1):
        sign = 1
        for _, s in taus:
            sign = -sign if s < 0 else sign
        term: Value = sign
        for i in range(1, n + 1):
            term *= entries[(i,) + tuple(tau[i - 1] for tau, _ in taus)]
            if term == 0:
                break
        total += term
    return total


def minor(t: DenseTensor, sets: Sequence[Iterable[int]]) -> DenseTensor:
    """Sub-tensor selecting one increasing index set per index position."""
    if len(sets) != t.order:
        raise ValueError(f"need {t.order} index sets, got {len(sets)}")
    picked = [as_index_set(s, t.dim) for s in sets]
    m = len(picked[0])
    if any(len(s) != m for s in picked):
        raise ValueError("index sets must share one cardinality")
    entries = {
        idx: t.entries[tuple(picked[pos][i - 1] for pos, i in enumerate(idx))]
        for idx in product(range(1, m + 1), repeat=t.order)
    }
    return DenseTensor(t.order, m, entries)


def laplace_sign(chosen: Sequence[Iterable[int]]) -> int:
    """Sign of the permutations sorting (I_i, complement of I_i) per slot.

    For each chosen set the inversions of the concatenated sequence are the
    pairs (a in I, b not in I, b < a); for singletons {j} this reduces to
    (-1)^(j-1).
    """
    inv = 0
    for s in chosen:
        picked = tuple(s)
        inside = set(picked)
        for a in picked:
            inv += sum(1 for b in range(1, a) if b not in inside)
    return -1 if inv % 2 else 1


def laplace_expand(
    t: DenseTensor, i1: Iterable[int], term_limit: int = DEFAULT_TERM_LIMIT
) -> Value:
    """Generalized Laplace expansion along the index sets of the first slot.

    Sums sign * Det(minor) * Det(complementary minor) over all increasing
    m-sets in slots 2..p; equals det_direct for every choice of i1.
    """
    if t.order % 2:
        warnings.warn(f"hyperdeterminant of odd order {t.order} is identically zero")
        return 0
    first = as_index_set(i1, t.dim)
    m = len(first)
    if m == 0:
        raise ValueError("i1 must be nonempty")
    n = t.dim
    full = range(1, n + 1)
    total: Value = 0
    for rest in product(combinations(full, m), repeat=t.order - 1):
        sets = (first,) + rest
        comps = tuple(tuple(i for i in full if i not in set(s)) for s in sets)
        sub = det_direct(minor(t, sets), term_limit)
        if sub == 0:
            continue
        total += laplace_sign(sets) * sub * det_direct(minor(t, comps), term_limit)
    return total


def hankel_tensor(
    moments: Callable[[int], Value],
    n: int,
    order: int,
    shifts: Sequence[Sequence[int]],
) -> DenseTensor:
    """Shifted Hankel tensor: entries depend only on the shifted index sum.

    Entry at the 1-based tuple (i_1, ..., i_p) is
    f(shift_1[i_1] + ... + shift_p[i_p] + (i_1 - 1) + ... + (i_p - 1)).
    Shift vectors are typically decreasing, but any integer vectors of
    length n are accepted.
    """
    if len(shifts) != order:
        raise ValueError(f"need {order} shift vectors, got {len(shifts)}")
    vecs = [tuple(int(x) for x in s) for s in shifts]
    if any(len(v) != n for v in vecs):
        raise ValueError("every shift vector must have length n")

    def fn(idx: IntVec) -> Value:
        s = sum(v[i - 1] for v, i in zip(vecs, idx)) + sum(idx) - order
        return moments(s)

    return DenseTensor.from_function(order, n, fn)
