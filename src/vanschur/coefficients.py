"""Expansion coefficients of even Vandermonde powers in the Schur basis.

g(lam; n, k) is the integer coefficient of the Schur function s_lam in
V(z_1,...,z_n)^(2k). Each coefficient is an independent sparse-tensor
evaluation, so full expansions distribute trivially over workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .delta_engine import DeltaSpec, MemoCache, _split, evaluate
from .partitions import IntVec, as_partition, enumerate_admissible, is_admissible


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
    if not is_admissible(lam, n, k):
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

    One process shares one memo across all of them. With more than one
    worker, position j goes to stripe j mod W, each stripe a process with its
    own memo. W is capped at the CPU count, and the pool is used only when
    every stripe gets at least two partitions.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(lams) < 2 * workers:
        return _stripe((lams, n, k))
    values = [0] * len(lams)
    stripes = [(lams[j::workers], n, k) for j in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for j, chunk in enumerate(pool.map(_stripe, stripes)):
            values[j::workers] = chunk
    return values


def expand(n: int, k: int, workers: int = 1) -> SchurExpansion:
    """Coefficients of every admissible partition of (n, k).

    The output is identical for any worker count: coefficients are
    independent, and the result is assembled in enumeration order rather
    than completion order.
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
    if not is_admissible(lam, n, k):
        raise ValueError(f"partition {list(lam)} is not admissible for n={n}, k={k}")
    found = _split(DeltaSpec.for_coefficient(lam, n, k).vectors, k + 1, n)
    if found is None:
        return None
    left, right, _ = found
    m = len(left[0])
    return left[0], right[0], m, n - m
