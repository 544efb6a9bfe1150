"""Shared helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from dense import DenseTensor
from vanschur.delta_engine import DeltaSpec

# The order-4, dim-3 worked tensor used throughout: vectors
# ((2,1,1),(1,0,0),(1,0,0),(0,0,0)), value 6. Its thirteen unit entries,
# transcribed from the reference layout (rows (i3,i4), columns (i1,i2)).
WORKED_TENSOR_VECTORS = ((2, 1, 1), (1, 0, 0), (1, 0, 0), (0, 0, 0))
WORKED_TENSOR_ONES = frozenset(
    {
        (2, 3, 1, 2),
        (3, 2, 1, 2),
        (1, 3, 1, 3),
        (3, 1, 1, 3),
        (2, 3, 2, 1),
        (3, 2, 2, 1),
        (1, 3, 2, 2),
        (3, 1, 2, 2),
        (2, 2, 2, 3),
        (2, 2, 3, 1),
        (1, 2, 3, 2),
        (2, 1, 3, 2),
        (1, 1, 3, 3),
    }
)


def random_tensor(rng: random.Random, order: int, dim: int, lo=-3, hi=3) -> DenseTensor:
    return DenseTensor.from_function(order, dim, lambda _: rng.randint(lo, hi))


def decreasing_vectors(n: int, lo: int = -3, hi: int = 3):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )


def delta_specs(max_n: int = 3, max_half: int = 3, lo: int = -3, hi: int = 3):
    """Arbitrary small specs; most fail the weight condition."""

    def build(n_half):
        n, half = n_half
        return st.tuples(*([decreasing_vectors(n, lo, hi)] * (2 * half))).map(
            lambda vs: DeltaSpec(tuple(vs))
        )

    return st.tuples(st.integers(1, max_n), st.integers(1, max_half)).flatmap(build)


def weighted_delta_specs(max_n: int = 3, max_half: int = 3):
    """Specs nudged onto the weight condition, so values are often nonzero."""

    def repair(spec: DeltaSpec) -> DeltaSpec:
        n, half = spec.n, spec.half
        gap = (half - 1) * n * (n - 1) - sum(map(sum, spec.vectors))
        per_vector, leftover = divmod(gap, n)
        vectors = list(spec.vectors)
        vectors[0] = tuple(x + per_vector for x in vectors[0])
        # absorb the remainder by raising a leading run of the second vector,
        # which keeps it weakly decreasing
        if leftover:
            v = list(vectors[1])
            for i in range(leftover):
                v[i] += 1
            vectors[1] = tuple(v)
        return DeltaSpec(tuple(vectors))

    return delta_specs(max_n, max_half).map(repair)


def spec_from_partition(lam, n: int, k: int) -> DeltaSpec:
    return DeltaSpec.for_coefficient(lam, n, k)
