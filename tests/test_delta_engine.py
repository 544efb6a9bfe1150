import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import (
    WORKED_TENSOR_ONES,
    WORKED_TENSOR_VECTORS,
    delta_specs,
    weighted_delta_specs,
)
from reference import child_spec, iter_subspecs, pivot_tuples
from vanschur.delta_engine import (
    DeltaSpec,
    MemoCache,
    _canonical_key,
    _split,
    evaluate,
    materialize,
    weight_ok,
)
from vanschur.hyperdet import det_direct

WORKED = DeltaSpec(WORKED_TENSOR_VECTORS)
SECOND = DeltaSpec(((4, 1, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_spec_validation():
    with pytest.raises(ValueError):
        DeltaSpec(((1, 2),) * 4)  # increasing
    with pytest.raises(ValueError):
        DeltaSpec(((1, 0), (1, 0), (1, 0)))  # odd count
    with pytest.raises(ValueError):
        DeltaSpec(((1, 0), (1, 0, 0)))  # ragged


def test_weight_ok_examples():
    assert weight_ok(WORKED)
    assert weight_ok(DeltaSpec(((0,),) * 6))
    bad = DeltaSpec(((1, 0), (0, 0), (0, 0), (0, 0)))
    assert not weight_ok(bad)
    assert evaluate(bad) == 0


def test_canonicalize_examples():
    key = _canonical_key(WORKED.vectors)
    assert key == (((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)), 1)
    normalized, total_shift = _canonical_key(((2, -1), (1, 0), (0, 0), (0, 0)))
    assert normalized == ((0, 0), (0, 0), (1, 0), (3, 0))
    assert total_shift == -1


@given(delta_specs(max_n=3, max_half=2), st.randoms(use_true_random=False))
def test_canonicalize_ignores_vector_order(spec, rng):
    shuffled = list(spec.vectors)
    rng.shuffle(shuffled)
    assert _canonical_key(tuple(shuffled)) == _canonical_key(spec.vectors)


def test_pivot_tuples_worked_tensor():
    tuples = pivot_tuples(WORKED, 1)
    assert sorted(tuples) == [(1, 1, 3, 3), (1, 2, 3, 2), (1, 3, 1, 3), (1, 3, 2, 2)]
    assert all(sum(t) == 8 for t in tuples)


def test_pivot_tuples_second_tensor():
    tuples = pivot_tuples(SECOND, 1)
    assert sorted(tuples) == [(1, 2, 3, 3), (1, 3, 2, 3), (1, 3, 3, 2)]
    assert all(sum(t) == 9 for t in tuples)


def test_pivot_tuples_match_unit_entries():
    tensor_ones = {
        idx for idx in WORKED_TENSOR_ONES if idx[0] == 1
    }
    assert set(pivot_tuples(WORKED, 1)) == tensor_ones
    for i1 in (2, 3):
        assert set(pivot_tuples(WORKED, i1)) == {
            idx for idx in WORKED_TENSOR_ONES if idx[0] == i1
        }


def test_child_spec_examples():
    child = child_spec(SECOND, (1, 2, 3, 3))
    assert child.vectors == ((2, -1), (1, 0), (0, 0), (0, 0))
    grand = child_spec(child, (1, 2, 2, 2))
    assert grand.vectors == ((0,), (0,), (0,), (0,))
    # deleting position 1 of a companion slot just drops the head entry
    other = child_spec(SECOND, (1, 3, 2, 3))
    assert other.vectors[1] == (0, 0)


def test_child_spec_rejects_bad_tuple():
    with pytest.raises(ValueError, match="caller bug"):
        child_spec(SECOND, (1, 1, 1, 1))


def test_child_specs_of_worked_tensor():
    children = sorted(child_spec(WORKED, t).vectors for t in pivot_tuples(WORKED, 1))
    assert children == [
        ((0, -1), (0, 0), (2, 0), (1, 0)),
        ((0, -1), (0, 0), (2, 1), (0, 0)),
        ((0, -1), (2, 0), (0, 0), (1, 0)),
        ((0, -1), (2, 1), (0, 0), (0, 0)),
    ]


def test_evaluate_reference_values():
    assert evaluate(WORKED) == 6
    assert evaluate(SECOND) == 3
    assert evaluate(DeltaSpec(((2, -1), (1, 0), (0, 0), (0, 0)))) == -1
    assert evaluate(DeltaSpec(((0, -1), (2, 1), (0, 0), (0, 0)))) == 2


def test_evaluate_base_cases():
    assert evaluate(DeltaSpec(((),) * 4)) == 1
    assert evaluate(DeltaSpec(((0,), (0,), (0,), (0,)))) == 1
    assert evaluate(DeltaSpec(((1,), (-1,), (0,), (0,)))) == 1
    assert evaluate(DeltaSpec(((1,), (0,), (0,), (0,)))) == 0


def test_evaluate_equals_signed_pivot_sum():
    for spec in (WORKED, SECOND, DeltaSpec(((3, 1, 0), (1, 1, 0), (0, 0, 0), (1, 0, 0)))):
        if not weight_ok(spec):
            continue
        total = 0
        for tup in pivot_tuples(spec, 1):
            sign = -1 if sum(tup) % 2 else 1
            total += sign * evaluate(child_spec(spec, tup))
        assert total == evaluate(spec)


def test_materialize_matches_reference_table():
    tensor = materialize(WORKED)
    for idx, value in tensor.entries.items():
        assert value == (1 if idx in WORKED_TENSOR_ONES else 0)


def test_materialize_single_point():
    tensor = materialize(DeltaSpec(((0,), (0,), (0,), (0,))))
    assert tensor.entries == {(1, 1, 1, 1): 1}


def test_materialize_guard():
    spec = DeltaSpec(((0,) * 8,) * 8)
    with pytest.raises(ValueError, match="materialize refused"):
        materialize(spec, limit=10**6)


def test_weight_failure_means_zero_tensor_value():
    spec = DeltaSpec(((1, 0), (0, 0), (0, 0), (0, 0)))
    assert det_direct(materialize(spec)) == 0


def split_product(left, right, sign):
    """Signed product of the two block values _split returns."""
    return sign * evaluate(DeltaSpec(left)) * evaluate(DeltaSpec(right))


def test_try_factorize_worked_case():
    spec = DeltaSpec(((7, 7, 4, 2, 0),) + ((0,) * 5,) * 3)
    split = _split(spec.vectors, spec.half, spec.n)
    assert split is not None
    left, right, sign = split
    assert left == ((1, 1), (0, 0), (0, 0), (0, 0))
    assert right == ((4, 2, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert split_product(*split) == evaluate(spec, factorize=False)


def test_try_factorize_none_when_no_cut_qualifies():
    assert _split(((1, 1), (0, 0), (0, 0), (0, 0)), 2, 2) is None


def test_try_factorize_first_cut_wins_and_value_agrees():
    # the staircase qualifies at every cut; the smallest one is taken
    lam = (6, 4, 2, 0)
    spec = DeltaSpec.for_coefficient(lam, 4, 1)
    split = _split(spec.vectors, spec.half, spec.n)
    left, right, sign = split
    assert len(left[0]) == 1 and len(right[0]) == 3
    assert split_product(*split) == evaluate(spec, factorize=False)


@settings(max_examples=60, deadline=None)
@given(weighted_delta_specs(max_n=3, max_half=2))
def test_evaluate_agrees_with_dense_oracle(spec):
    assert evaluate(spec) == det_direct(materialize(spec))


@settings(max_examples=20, deadline=None)
@given(weighted_delta_specs(max_n=3, max_half=3))
def test_evaluate_agrees_with_dense_oracle_higher_order(spec):
    assert evaluate(spec) == det_direct(materialize(spec))


@settings(max_examples=40, deadline=None)
@given(weighted_delta_specs(max_n=3, max_half=2), st.randoms(use_true_random=False))
def test_evaluate_is_permutation_invariant(spec, rng):
    value = evaluate(spec)
    shuffled = list(spec.vectors)
    rng.shuffle(shuffled)
    assert evaluate(DeltaSpec(tuple(shuffled))) == value


@settings(max_examples=40, deadline=None)
@given(
    weighted_delta_specs(max_n=3, max_half=2),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
)
def test_evaluate_is_shift_invariant(spec, shifts):
    shifts = shifts[: spec.order - 1]
    shifts.append(-sum(shifts))
    shifted = tuple(
        tuple(x + m for x in v) for v, m in zip(spec.vectors, shifts)
    )
    assert evaluate(DeltaSpec(shifted)) == evaluate(spec)


@settings(max_examples=40, deadline=None)
@given(delta_specs(max_n=3, max_half=2))
def test_weight_failure_forces_zero(spec):
    if not weight_ok(spec):
        assert evaluate(spec) == 0


@settings(max_examples=30, deadline=None)
@given(weighted_delta_specs(max_n=3, max_half=2))
def test_children_stay_valid_specs(spec):
    if spec.n < 2:
        return
    for tup in pivot_tuples(spec, 1):
        child = child_spec(spec, tup)
        assert child.n == spec.n - 1
        for v in child.vectors:
            assert all(v[i] >= v[i + 1] for i in range(len(v) - 1))


@settings(max_examples=30, deadline=None)
@given(weighted_delta_specs(max_n=3, max_half=2))
def test_factorization_consistency(spec):
    split = _split(spec.vectors, spec.half, spec.n)
    if split is None:
        return
    assert split_product(*split) == evaluate(spec, factorize=False)


def _balanced_vectors(rng, n, order):
    vs = [
        tuple(sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True))
        for _ in range(order)
    ]
    gap = (order // 2 - 1) * n * (n - 1) - sum(map(sum, vs))
    per, leftover = divmod(gap, n)
    vs[0] = tuple(x + per for x in vs[0])
    if leftover:
        v = list(vs[1])
        for i in range(leftover):
            v[i] += 1
        vs[1] = tuple(v)
    return tuple(vs)


def test_constructed_block_splits_verify_both_signs():
    # assemble parents from weight-balanced factors; a single uplift knob D
    # (a zero-sum shift of the left factor) keeps every concatenation
    # decreasing, so the cut is guaranteed to qualify
    rng = random.Random(424242)
    odd_signs = dense_checked = 0
    for _ in range(60):
        order, K = 4, 2
        m, r = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        n = m + r
        left_vecs = _balanced_vectors(rng, m, order)
        right_vecs = _balanced_vectors(rng, r, order)
        gaps = [max(right_vecs[0]) - (min(left_vecs[0]) + 2 * (K - 1) * r)]
        gaps += [max(left_vecs[j]) - min(right_vecs[j]) for j in range(1, order)]
        uplift = max(0, max(gaps)) + 1
        slot1 = (
            tuple(x + (order - 1) * uplift + 2 * (K - 1) * r for x in left_vecs[0])
            + right_vecs[0]
        )
        parent = DeltaSpec(
            (slot1,)
            + tuple(
                right_vecs[j] + tuple(x - uplift for x in left_vecs[j])
                for j in range(1, order)
            )
        )
        split = _split(parent.vectors, parent.half, parent.n)
        assert split is not None
        left, right, sign = split
        want = evaluate(parent, factorize=False)
        assert split_product(*split) == want
        assert evaluate(parent) == want
        odd_signs += (len(left[0]) * len(right[0])) % 2
        if n <= 3:
            assert det_direct(materialize(parent)) == want
            dense_checked += 1
    assert odd_signs > 0 and dense_checked > 0


def test_factorization_consistency_on_expansion_specs():
    # every factorizable coefficient spec for small (n, k) splits consistently
    from vanschur.partitions import enumerate_admissible

    checked = 0
    for n, k in ((4, 1), (5, 1), (3, 2)):
        for lam in enumerate_admissible(n, k):
            spec = DeltaSpec.for_coefficient(lam, n, k)
            split = _split(spec.vectors, spec.half, spec.n)
            if split is None:
                continue
            assert split_product(*split) == evaluate(spec, factorize=False)
            checked += 1
    assert checked > 10


def test_every_subspec_of_small_expansions_matches_dense_oracle():
    # full recursion closure: everything the pivot recursion can reach for
    # the (3,1) and (2,2) coefficient tensors agrees with the dense sum
    from vanschur.partitions import enumerate_admissible

    seen = 0
    for n, k in ((3, 1), (2, 2)):
        for lam in enumerate_admissible(n, k):
            for sub in iter_subspecs(DeltaSpec.for_coefficient(lam, n, k)):
                if sub.n == 0:
                    continue
                assert evaluate(sub) == det_direct(materialize(sub))
                seen += 1
    assert seen >= 20


@pytest.mark.parametrize("capacity", [0, 1, 7, None])
def test_cache_capacity_is_invisible_in_values(capacity):
    cache = MemoCache(capacity) if capacity is not None else None
    assert evaluate(SECOND, cache) == 3
    assert evaluate(WORKED, cache) == 6


def test_cache_counters_and_eviction():
    cache = MemoCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts b, the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.hits == 2 and cache.misses == 1
    assert len(cache) == 2


def test_cache_rejects_conflicting_insert():
    cache = MemoCache(capacity=10)
    cache.put("a", 1)
    cache.put("a", 1)
    with pytest.raises(RuntimeError, match="conflicting"):
        cache.put("a", 2)


def test_cache_capacity_zero_stores_nothing():
    cache = MemoCache(capacity=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0


def test_cache_capacity_env_override(monkeypatch):
    monkeypatch.setenv("VANSCHUR_CACHE_CAPACITY", "3")
    cache = MemoCache()
    assert cache.capacity == 3


def test_shared_cache_across_specs_is_consistent():
    cache = MemoCache()
    values = [evaluate(SECOND, cache), evaluate(WORKED, cache)]
    again = [evaluate(SECOND, cache), evaluate(WORKED, cache)]
    assert values == again == [3, 6]
    assert cache.hits > 0
