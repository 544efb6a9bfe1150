"""Expansion coefficients of even Vandermonde powers in the Schur basis.

g(lam; n, k) is the integer coefficient of the Schur function s_lam in
V(z_1,...,z_n)^(2k). Each coefficient is a sparse-tensor evaluation of its
own. V^(2k) is unchanged, up to a monomial factor, by z -> 1/z, so
g(lam) = g(lam^c) for the complement lam^c_i = 2k(n-1) - lam_(n+1-i). A list
of coefficients therefore evaluates one member of each complement pair, the
lexicographically smaller one, and gives its exact value to both; the
smaller members share far more subproblems in one memo than a mix of both
members does (34,215 memo entries against 92,317 on the (8,1) table).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .delta_engine import DeltaSpec, MemoCache, _split, evaluate
from .partitions import (
    IntVec,
    _within_bounds,
    as_partition,
    enumerate_admissible,
)


@dataclass(frozen=True)
class SchurExpansion:
    """All coefficients of one (n, k), keyed by partition in reverse-lex order."""

    n: int
    k: int
    terms: dict[IntVec, int]

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, lam: Sequence[int]) -> int:
        return self.terms.get(as_partition(lam, self.n), 0)

    def vanishing(self) -> list[IntVec]:
        return [lam for lam, g in self.terms.items() if g == 0]


def g_coefficient(
    lam: Iterable[int], n: int, k: int, cache: MemoCache | None = None
) -> int:
    """Single expansion coefficient, computed without touching the others.

    Inadmissible partitions vanish outright (dominance-interval necessity);
    otherwise the value is (-1)^(n(n-1)/2) times the sparse tensor value for
    lam alongside 2k+1 zero vectors.
    """
    lam = as_partition(lam, n)
    if not _within_bounds(lam, n, k):
        return 0
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    # perfbench's test_wrong_value_is_a_failure plants a wrong value by
    # matching the return line verbatim; keep its text until that test changes
    factorize = True
    return sign * evaluate(DeltaSpec.for_coefficient(lam, n, k), cache, factorize=factorize)


def _stripe(args) -> list[int]:
    lams, n, k = args
    cache = MemoCache()
    return [g_coefficient(lam, n, k, cache) for lam in lams]


def g_coefficients(
    lams: Sequence[IntVec], n: int, k: int, workers: int = 1
) -> list[int]:
    """Coefficients of the given partitions of (n, k), in the order given.

    Each admissible partition stands for the lexicographically smaller member
    of its complement pair, and each distinct member is evaluated once, in
    order of first appearance; inadmissible partitions are 0. One process
    shares one memo across all of them. With more than one worker, distinct
    member j goes to stripe j mod W, each stripe a process with its own memo.
    W is capped at the CPU count, and the pool is used only when every stripe
    gets at least two members. Values, and errors on malformed partitions,
    are those of g_coefficient called on each partition in turn.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    top = 2 * k * (n - 1)
    reps: list[IntVec | None] = []
    for lam in lams:
        lam = as_partition(lam, n)
        # an admissible partition has no part above top, so its complement
        # is a partition too
        ok = _within_bounds(lam, n, k)
        reps.append(min(lam, tuple(top - x for x in reversed(lam))) if ok else None)
    distinct = list(dict.fromkeys(r for r in reps if r is not None))
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(distinct) < 2 * workers:
        values = _stripe((distinct, n, k))
    else:
        # imported here: a serial run would pay for it at start-up
        from concurrent.futures import ProcessPoolExecutor

        values = [0] * len(distinct)
        stripes = [(distinct[j::workers], n, k) for j in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for j, chunk in enumerate(pool.map(_stripe, stripes)):
                values[j::workers] = chunk
    value = dict(zip(distinct, values))
    value[None] = 0
    return [value[r] for r in reps]


def expand(n: int, k: int, workers: int = 1) -> SchurExpansion:
    """Coefficients of every admissible partition of (n, k).

    The complement of an admissible partition is admissible, so about half
    of them are evaluated (2,756 of 5,302 on (8,1)) and the other half take
    their complement's value, which is exact: g(lam) = g(lam^c) is an
    identity. The output is identical for any worker count: the result is
    assembled in enumeration order rather than completion order.
    """
    lams = list(enumerate_admissible(n, k))
    values = g_coefficients(lams, n, k, workers)
    return SchurExpansion(n=n, k=k, terms=dict(zip(lams, values)))


def count_vanishing(n: int, k: int, workers: int = 1) -> tuple[int, int]:
    """(admissible, vanishing) counts over the full expansion of (n, k)."""
    exp = expand(n, k, workers)
    return len(exp), len(exp.vanishing())


def factorize_g(
    lam: Iterable[int], n: int, k: int
) -> tuple[IntVec, IntVec, int, int] | None:
    """Coefficient-level factorization split, when one exists.

    The engine's block split of the coefficient tensor: at the smallest cut
    0 < m < n it allows, g(lam; n, k) = g(mu; m, k) * g(nu; n-m, k) with mu
    the m leading parts lowered by 2k(n-m) and nu the trailing parts.
    Returns (mu, nu, m, n-m) or None.
    """
    lam = as_partition(lam, n)
    if not _within_bounds(lam, n, k):
        raise ValueError(f"partition {list(lam)} is not admissible for n={n}, k={k}")
    found = _split(DeltaSpec.for_coefficient(lam, n, k).vectors, k + 1, n)
    if found is None:
        return None
    left, right, _ = found
    m = len(left[0])
    return left[0], right[0], m, n - m
