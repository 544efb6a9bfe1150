import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import WORKED_TENSOR_VECTORS, random_tensor
from reference import det_direct_reference
from vanschur.delta_engine import DeltaSpec, materialize
from vanschur.hyperdet import (
    BudgetError,
    DenseTensor,
    det_direct,
    hankel_tensor,
    laplace_expand,
    laplace_sign,
    minor,
)


def test_det_direct_is_the_matrix_determinant_for_order_2():
    t = DenseTensor(2, 2, {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4})
    assert det_direct(t) == -2


def test_det_direct_all_ones_vanishes():
    t = DenseTensor.from_function(4, 2, lambda _: 1)
    assert det_direct(t) == 0


def test_det_direct_odd_order_is_zero_with_warning():
    t = DenseTensor.from_function(3, 2, lambda idx: sum(idx))
    with pytest.warns(UserWarning, match="odd order"):
        assert det_direct(t) == 0


def test_det_direct_worked_tensor():
    t = materialize(DeltaSpec(WORKED_TENSOR_VECTORS))
    assert det_direct(t) == 6


def test_det_direct_refuses_oversized_input():
    t = DenseTensor.from_function(4, 5, lambda _: 1)
    with pytest.raises(BudgetError):
        det_direct(t)


def test_det_direct_agrees_with_literal_definition():
    rng = random.Random(1543)
    for _ in range(10):
        t = random_tensor(rng, 4, 2)
        assert det_direct(t) == det_direct_reference(t)
    t = random_tensor(rng, 2, 3)
    assert det_direct(t) == det_direct_reference(t)


def test_det_direct_alternates_under_slice_swap():
    rng = random.Random(97)
    for _ in range(5):
        t = random_tensor(rng, 4, 3)
        pos = rng.randrange(4)
        a, b = rng.sample((1, 2, 3), 2)
        swap = {a: b, b: a}

        def swapped(idx):
            j = list(idx)
            j[pos] = swap.get(j[pos], j[pos])
            return t.entries[tuple(j)]

        assert det_direct(DenseTensor.from_function(4, 3, swapped)) == -det_direct(t)


def test_det_direct_is_multilinear_in_slices():
    rng = random.Random(98)
    base = random_tensor(rng, 4, 2)
    other = random_tensor(rng, 4, 2)

    def mixed(scale_new):
        def fn(idx):
            if idx[0] == 1:
                return base.entries[idx] + scale_new * other.entries[idx]
            return base.entries[idx]

        return DenseTensor.from_function(4, 2, fn)

    def only_other(idx):
        return other.entries[idx] if idx[0] == 1 else base.entries[idx]

    lhs = det_direct(mixed(3))
    rhs = det_direct(base) + 3 * det_direct(DenseTensor.from_function(4, 2, only_other))
    assert lhs == rhs


def test_minor_full_and_singleton():
    rng = random.Random(5)
    t = random_tensor(rng, 4, 3)
    full = (1, 2, 3)
    assert minor(t, [full] * 4).entries == t.entries
    single = minor(t, [(2,), (1,), (3,), (2,)])
    assert single.entries == {(1, 1, 1, 1): t.entries[(2, 1, 3, 2)]}


def test_minor_of_worked_tensor():
    t = materialize(DeltaSpec(WORKED_TENSOR_VECTORS))
    sub = minor(t, [(2, 3), (1, 2), (1, 3), (1, 3)])
    expected = materialize(DeltaSpec(((0, -1), (0, 0), (2, 0), (1, 0))))
    assert sub.entries == expected.entries


def test_minor_rejects_uneven_cardinalities():
    t = DenseTensor.from_function(2, 2, lambda _: 1)
    with pytest.raises(ValueError):
        minor(t, [(1,), (1, 2)])


def test_minor_composition():
    rng = random.Random(12)
    t = random_tensor(rng, 4, 4)
    outer = [(1, 2, 4), (2, 3, 4), (1, 3, 4), (1, 2, 3)]
    inner = [(1, 3), (2, 3), (1, 2), (2, 3)]
    composed = [
        tuple(o[i - 1] for i in inn) for o, inn in zip(outer, inner)
    ]
    assert minor(minor(t, outer), inner).entries == minor(t, composed).entries


def test_laplace_sign_examples():
    assert laplace_sign([(1,)] * 4) == 1
    assert laplace_sign([(1,), (3,), (2,), (2,)]) == 1
    assert laplace_sign([(1,), (2,), (3,), (3,)]) == -1


def test_laplace_sign_blocks_and_singletons():
    # block sets: inversions only in the first slot, m*(n-m) of them
    assert laplace_sign([(3, 4), (1, 2), (1, 2), (1, 2)]) == 1
    assert laplace_sign([(2, 3)]) == 1
    assert laplace_sign([(2,)]) == -1
    assert laplace_sign([(4,), (1,)]) == -1


def test_laplace_expand_matches_classical_row_expansion():
    t = DenseTensor(2, 2, {(1, 1): 5, (1, 2): -2, (2, 1): 7, (2, 2): 3})
    assert laplace_expand(t, (1,)) == det_direct(t) == 29


def test_laplace_expand_worked_tensor():
    t = materialize(DeltaSpec(WORKED_TENSOR_VECTORS))
    assert laplace_expand(t, (1,)) == 6


def test_laplace_expand_agrees_with_det_direct_on_random_tensors():
    rng = random.Random(20240915)
    for trial in range(20):
        dim = 2 + trial % 2
        t = random_tensor(rng, 4, dim)
        want = det_direct(t)
        i1 = (1 + trial % dim,)
        assert laplace_expand(t, i1) == want


def test_laplace_expand_with_two_element_sets():
    rng = random.Random(77)
    for _ in range(5):
        t = random_tensor(rng, 4, 3)
        assert laplace_expand(t, (1, 3)) == det_direct(t)


def test_hankel_constant_moments():
    t = hankel_tensor(lambda _: 1, 3, 2, [(0, 0, 0), (0, 0, 0)])
    assert all(v == 1 for v in t.entries.values())


def test_hankel_entry_formula():
    shifts = [(3, 1, 0), (2, 2, 1)]
    t = hankel_tensor(lambda s: s, 3, 2, shifts)
    for i, j in product(range(1, 4), repeat=2):
        assert t.entries[(i, j)] == shifts[0][i - 1] + shifts[1][j - 1] + i + j - 2


def test_hankel_accepts_fraction_moments():
    t = hankel_tensor(lambda s: Fraction(1, s + 1), 2, 2, [(0, 0), (0, 0)])
    assert t.entries[(1, 1)] == Fraction(1)
    assert t.entries[(2, 2)] == Fraction(1, 3)
