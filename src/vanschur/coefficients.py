"""Expansion coefficients of even Vandermonde powers in the Schur basis.

g(lam; n, k) is the integer coefficient of the Schur function s_lam in
V(z_1,...,z_n)^(2k). Each coefficient is a sparse-tensor evaluation of its
own. V^(2k) is unchanged, up to a monomial factor, by z -> 1/z, so
g(lam) = g(lam^c) for the complement lam^c_i = 2k(n-1) - lam_(n+1-i). A list
of coefficients therefore evaluates one member of each complement pair, the
lexicographically smaller one, and gives its exact value to both; the
smaller members share far more subproblems in one memo than a mix of both
members does (34,226 memo entries against 92,323 on the (8,1) table).

On W workers a table is laid out as W shards: partitions.deal splits it by
pair class, and partitions.gather puts the values back, as shard and merge do.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

from .delta_engine import DeltaSpec, MemoCache, _split, evaluate
from .partitions import IntVec, _within_bounds, as_partition, deal, enumerate_admissible, gather
from .records import SchurExpansion


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


def _pass(lams: Iterable[IntVec], n: int, k: int) -> Iterator[tuple[IntVec, int]]:
    """(lam, its coefficient) for each of lams in turn, yielded as soon as
    known, from one memo: lams are distinct admissible partitions of n parts
    that give the larger member of a complement pair before the smaller, as
    the enumeration, a class of it and a list of smaller members do. A pair's
    smaller member is evaluated at the pair's first partition.
    """
    top = 2 * k * (n - 1)
    cache = MemoCache()
    open_pairs: dict[IntVec, int] = {}
    for lam in lams:
        # an admissible partition has no part above top, so its complement
        # is a partition too
        comp = tuple([top - x for x in reversed(lam)])
        rep = min(lam, comp)
        g = open_pairs.pop(rep, None)
        if g is None:
            g = g_coefficient(rep, n, k, cache)
            if lam != rep:
                open_pairs[rep] = g
        yield lam, g


def _class_values(args) -> list[int]:
    """A pool worker's coefficients of one class of partitions, in its order."""
    return [g for _, g in _pass(*args)]


def g_coefficients(
    lams: Sequence[IntVec], n: int, k: int, workers: int = 1
) -> list[int]:
    """Coefficients of the given partitions of (n, k), in the order given.

    Each admissible partition stands for the lexicographically smaller member
    of its complement pair, and the distinct members go through iter_terms,
    on W workers, in order of first appearance; inadmissible partitions are
    0. Values, and errors on malformed partitions, are those of g_coefficient
    called on each partition in turn.
    """
    top = 2 * k * (n - 1)
    reps: list[IntVec | None] = []
    for lam in lams:
        lam = as_partition(lam, n)
        ok = _within_bounds(lam, n, k)
        reps.append(min(lam, tuple(top - x for x in reversed(lam))) if ok else None)
    value = dict(iter_terms(dict.fromkeys(r for r in reps if r is not None), n, k, workers))
    return [value.get(r, 0) for r in reps]


def iter_terms(
    lams: Iterable[IntVec], n: int, k: int, workers: int = 1
) -> Iterator[tuple[IntVec, int]]:
    """(lam, coefficient) for each of lams, in the order given: distinct
    admissible partitions of n parts in reverse-lex order, the admissible
    enumeration or a shard of it, taken as they are.

    Serially, lams is taken in one pass and each term is yielded as soon as
    its value is known, holding only the complement pairs still open. With
    W > 1 workers, capped at the CPU count, lams is listed and dealt by class
    as `shard` deals a table, each class runs in a process of its own as
    `shard` runs it, and the values are gathered as `merge` places records.
    The two workers of (8,1) miss 1.14x as often as one memo. The pool is
    used only when every class gets at least two partitions. A worker that
    dies, killed by a signal say, raises ChildProcessError, an OSError.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        lams = list(lams)
        parts = deal(lams, n, k, workers)
        if min(map(len, parts)) >= 2:
            # imported here: a serial run would pay for it at start-up
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    values = list(pool.map(_class_values, [(part, n, k) for part in parts]))
            except BrokenProcessPool as exc:
                raise ChildProcessError("a worker process ended before its class was done") from exc
            return zip(lams, gather(lams, n, k, workers, values))
    return _pass(lams, n, k)


def expand(n: int, k: int, workers: int = 1) -> SchurExpansion:
    """Coefficients of every admissible partition of (n, k).

    The complement of an admissible partition is admissible, so about half
    of them are evaluated (2,756 of 5,302 on (8,1)) and the other half take
    their complement's value, which is exact: g(lam) = g(lam^c) is an
    identity. The output is identical for any worker count: the result is
    assembled in enumeration order rather than completion order.
    """
    terms = iter_terms(enumerate_admissible(n, k), n, k, workers)
    return SchurExpansion(n=n, k=k, terms=dict(terms))


def count_vanishing(n: int, k: int, workers: int = 1) -> tuple[int, int]:
    """(admissible, vanishing) counts over the full expansion of (n, k),
    counted as the terms come, with no table held."""
    admissible = vanishing = 0
    for _, g in iter_terms(enumerate_admissible(n, k), n, k, workers):
        admissible += 1
        vanishing += g == 0
    return admissible, vanishing


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
