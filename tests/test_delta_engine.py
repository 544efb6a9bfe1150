import functools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import (
    WORKED_TENSOR_ONES,
    WORKED_TENSOR_VECTORS,
    delta_specs,
    weighted_delta_specs,
)
from dense import det_direct, materialize
from reference import canonical_key, child_spec, iter_subspecs, pivot_tuples
from vanschur import delta_engine
from vanschur.coefficients import g_coefficient, g_coefficients
from vanschur.delta_engine import (
    DeltaSpec,
    MemoCache,
    _child_vectors,
    _memo_key,
    _pivot_children,
    _pivot_sum,
    _slot,
    _split,
    evaluate,
    weight_ok,
)
from vanschur.partitions import enumerate_admissible

WORKED = DeltaSpec(WORKED_TENSOR_VECTORS)
SECOND = DeltaSpec(((4, 1, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_spec_validation():
    with pytest.raises(ValueError):
        DeltaSpec(((1, 2),) * 4)  # increasing
    with pytest.raises(ValueError):
        DeltaSpec(((1, 0), (1, 0), (1, 0)))  # odd count
    with pytest.raises(ValueError):
        DeltaSpec(((1, 0), (1, 0, 0)))  # ragged
    with pytest.raises(ValueError, match="is not an int"):
        DeltaSpec([(1.5, 0), (0, 0)])  # int() would make (1, 0)


def test_weight_ok_examples():
    assert weight_ok(WORKED)
    assert weight_ok(DeltaSpec(((0,),) * 6))
    bad = DeltaSpec(((1, 0), (0, 0), (0, 0), (0, 0)))
    assert not weight_ok(bad)
    assert evaluate(bad) == 0


def test_canonicalize_examples():
    key = canonical_key(WORKED.vectors)
    assert key == (((0, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)), 1)
    normalized, total_shift = canonical_key(((2, -1), (1, 0), (0, 0), (0, 0)))
    assert normalized == ((0, 0), (0, 0), (1, 0), (3, 0))
    assert total_shift == -1


@given(delta_specs(max_n=3, max_half=2), st.randoms(use_true_random=False))
def test_canonicalize_ignores_vector_order(spec, rng):
    shuffled = list(spec.vectors)
    rng.shuffle(shuffled)
    assert _memo_key(tuple(shuffled)) == _memo_key(spec.vectors)


@functools.cache
def reachable_subspecs(n, k):
    """What iter_subspecs gives for each admissible partition of (n, k), in
    turn; a subspec reached from two partitions appears twice."""
    return tuple(
        sub
        for lam in enumerate_admissible(n, k)
        for sub in iter_subspecs(DeltaSpec.for_coefficient(lam, n, k))
    )


@pytest.mark.parametrize("n, k", [(5, 2), (6, 1), (4, 3)])
def test_memo_key_is_a_bijection_of_the_reference_key(n, k):
    # two subspecs share a memo key exactly when they share the reference key
    memo_to_ref: dict = {}
    ref_to_memo: dict = {}
    subspecs = 0
    for sub in reachable_subspecs(n, k):
        memo, ref = _memo_key(sub.vectors), canonical_key(sub.vectors)
        assert memo_to_ref.setdefault(memo, ref) == ref
        assert ref_to_memo.setdefault(ref, memo) == memo
        subspecs += 1
    assert len(memo_to_ref) == len(ref_to_memo) > 100
    assert subspecs > len(memo_to_ref)


def pivotings(sub):
    """The spec with each of its distinct vectors moved to the pivot slot."""
    vecs = sub.vectors
    for j in sorted({vecs.index(v) for v in vecs}):
        yield (vecs[j],) + vecs[:j] + vecs[j + 1 :]


def pivot_child_first(first, half):
    """First vector of every i_1 = 1 pivot child: the pivot vector without
    its last entry, lowered by 2(K-1)."""
    return tuple(x - 2 * (half - 1) for x in first[:-1])


@pytest.mark.parametrize("n, k", [(5, 2), (6, 1), (4, 3)])
def test_pivot_children_and_split_blocks_keep_the_weight(n, k):
    # evaluate checks the weight only on the spec it is given, so every
    # pivot child and both split blocks of a spec of the right weight must
    # have it too; any slot may be the pivot
    children = blocks = 0
    checked = set()
    distinct = {_memo_key(sub.vectors): sub for sub in reachable_subspecs(n, k)}
    for sub in distinct.values():
        assert weight_ok(sub)
        if sub.n < 2:
            continue
        for pivoted in pivotings(sub):
            first, rest = pivoted[0], tuple(sorted(pivoted[1:]))
            head = pivot_child_first(first, sub.half)
            need = (2 * sub.half - 1) * sub.n - first[-1]
            for _, chain in _pivot_children(rest, need, _slot(head)).values():
                child = (head,) + _child_vectors(chain)
                if child not in checked:
                    assert weight_ok(DeltaSpec(child))
                    checked.add(child)
                children += 1
            split = _split(pivoted, sub.half, sub.n)
            if split is not None:
                left, right, _ = split
                assert weight_ok(DeltaSpec(left)) and weight_ok(DeltaSpec(right))
                blocks += 2
    assert children > 1000 and blocks > 100


def group_order(rest):
    """The distinct companion vectors in the order _pivot_children takes
    their groups, with the count of each: by count, ties in sorted order."""
    counts = {v: rest.count(v) for v in rest}
    return sorted(sorted(counts), key=counts.get), counts


def leftover_sum_repeats(spec, tuples, rest):
    """Whether two choices of the groups walked before the last two, each
    reaching a child, leave the same sum for those two groups to meet."""
    order, _ = group_order(rest)
    walked = order[:-2]
    n = spec.n
    need = (2 * spec.half - 1) * n - spec.vectors[0][-1]
    choices: dict = {}
    for tup in tuples:
        picked = sorted((v, i) for v, i in zip(spec.vectors[1:], tup[1:]) if v in walked)
        left = need - sum(v[n - i] + i for v, i in picked)
        choices.setdefault(left, set()).add(tuple(picked))
    return any(len(c) > 1 for c in choices.values())


@functools.cache
def rectangle_subspecs(n, k):
    """What iter_subspecs gives for the (n,k) rectangle (k(n-1), ..., k(n-1))."""
    return tuple(iter_subspecs(DeltaSpec.for_coefficient((k * (n - 1),) * n, n, k)))


@pytest.mark.parametrize("cell", [(5, 2), (4, 3), "rectangle"])
def test_pivot_children_match_brute_force(cell):
    # every i_1 = 1 pivot tuple of the reference, keyed as the engine keys a
    # child (the product of its struck companions' primes) and signed
    # (-1)^(index sum): the engine's signed counts must match key by key,
    # zero counts included, and each chain must give struck vectors that
    # make its key, one per companion, in group order
    if cell == "rectangle":
        subs = rectangle_subspecs(6, 2)
    elif cell == (4, 3):
        # in the (4,3) table alone only 61 specs walk two choices that leave
        # one sum; with the (5,3) rectangle's subspecs, 260 do
        subs = reachable_subspecs(4, 3) + rectangle_subspecs(5, 3)
    else:
        subs = reachable_subspecs(*cell)
    distinct = {_memo_key(sub.vectors): sub for sub in subs}
    moved = repeats = 0
    for spec in distinct.values():
        n = spec.n
        if n < 2:
            continue
        first, rest = spec.vectors[0], tuple(sorted(spec.vectors[1:]))
        need = (2 * spec.half - 1) * n - first[-1]
        # each companion struck at index i: its entry at n - i goes, and
        # those before it go up by 1, as child_spec strikes it; the terms
        # v[n-i] + i meet need
        struck_at = {
            v: [tuple(x + 1 for x in v[: n - i]) + v[n - i + 1 :] for i in range(1, n + 1)]
            for v in set(rest)
        }
        strikes = {v: {w: v[n - i] + i for i, w in enumerate(ws, 1)}
                   for v, ws in struck_at.items()}
        primes = {v: [None, *map(_slot, ws)] for v, ws in struck_at.items()}
        companions = spec.vectors[1:]
        tuples = pivot_tuples(spec, 1)
        want: dict = {}
        for tup in tuples:
            key = math.prod([primes[v][i] for v, i in zip(companions, tup[1:])])
            want[key] = want.get(key, 0) + (-1 if sum(tup) % 2 else 1)
        got = _pivot_children(rest, need, 1)
        assert {key: count for key, (count, _) in got.items()} == want
        order, counts = group_order(rest)
        grouped = [v for v in order for _ in range(counts[v])]
        for key, (_, chain) in got.items():
            struck = _child_vectors(chain)
            assert math.prod(map(_slot, struck)) == key
            assert sum(strikes[v][w] for v, w in zip(grouped, struck)) == need
        moved += order != sorted(counts)
        repeats += leftover_sum_repeats(spec, tuples, rest)
    assert moved >= 100 and repeats >= 100


def probed_children(pivoted, cache, monkeypatch):
    """(key, signed count, vectors) of each child _pivot_sum probes, in order.

    The memo misses every child, and each child is worth a distinct power of
    2**64, so the signed sum _pivot_sum returns spells out every count. Each
    child must come with the prime of its first vector."""
    seen = []

    def record(child, child_key, first_id, cache):
        assert first_id == _slot(child[0])
        seen.append((child_key, child))
        return 1 << (64 * len(seen))

    with monkeypatch.context() as patch:
        patch.setattr(delta_engine, "_evaluate", record)
        total = _pivot_sum(pivoted, None, _memo_key(pivoted), cache) >> 64
    children = []
    for child_key, child in seen:
        count = total & ((1 << 64) - 1)
        count -= (count >> 63) << 64
        total = (total - count) >> 64
        children.append((child_key, count, child))
    assert total == 0
    return children


@pytest.mark.parametrize("n, k", [(5, 2), (6, 1), (4, 3)])
def test_kept_companion_side_gives_the_children_of_the_first_sight(n, k, monkeypatch):
    # the first sight of (companions, need) enumerates with the pivot child's
    # id among the starting ids; the second keeps the companion side and the
    # third reuses it: all three must probe the same keys in the same order,
    # with the same counts and the same vectors
    distinct = {_memo_key(sub.vectors): sub for sub in reachable_subspecs(n, k)}
    compared = 0
    for sub in distinct.values():
        if sub.n < 3:
            continue
        for pivoted in pivotings(sub):
            cache = MemoCache()
            cold = probed_children(pivoted, cache, monkeypatch)
            assert len(cache.pivots) == 1 and None in cache.pivots.values()
            for _ in range(2):
                warm = probed_children(pivoted, cache, monkeypatch)
                assert warm == cold
            assert None not in cache.pivots.values()
            compared += len(cold)
    assert compared > 1000


@settings(max_examples=60, deadline=None)
@given(
    weighted_delta_specs(max_n=4, max_half=2),
    st.integers(0, 3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_companions_equal_up_to_shifts_share_one_kept_side(spec, pivot, shifts):
    # a zero-sum shift of the slots leaves the tensor and the shifted need
    # as they are: the second sight keeps the shifted companions' side, and
    # the third, with the first sight's companions, reuses it, building each
    # child from the kept vectors and a shifted first vector
    assume(spec.n >= 3)
    vecs = spec.vectors
    j = pivot % len(vecs)
    pivoted = (vecs[j],) + vecs[:j] + vecs[j + 1 :]
    shifts = shifts[: len(vecs) - 1]
    moved = (tuple(x - sum(shifts) for x in pivoted[0]),) + tuple(
        tuple(x + m for x in v) for v, m in zip(pivoted[1:], shifts)
    )
    cache = MemoCache()
    with pytest.MonkeyPatch.context() as monkeypatch:
        sights = [
            probed_children(sight, cache, monkeypatch)
            for sight in (pivoted, moved, pivoted)
        ]
    assert len(cache.pivots) == 1 and cache.returns == 2
    fresh = {key: (count, child) for key, count, child in sights[0]}
    for sight in sights[1:]:
        assert {key: count for key, count, _ in sight} == {
            key: count for key, (count, _) in fresh.items()
        }
        for key, _, child in sight:
            dense = det_direct(materialize(DeltaSpec(child)))
            assert dense == det_direct(materialize(DeltaSpec(fresh[key][1])))
    want = det_direct(materialize(spec))
    assert evaluate(DeltaSpec(moved)) == evaluate(DeltaSpec(pivoted)) == want


@pytest.mark.parametrize("n, k", [(7, 1), (5, 2)])
def test_a_table_memo_holds_one_object_per_int(n, k):
    # equal memo values, and equal child products in the kept companion
    # sides, are one object each; both repeat many times
    cache = MemoCache()
    for lam in enumerate_admissible(n, k):
        g_coefficient(lam, n, k, cache)
    stride = 2 * k + 3  # a product, 2k+1 struck vectors and a count
    products = [
        kept[at]
        for kept in cache.pivots.values()
        if kept is not None
        for at in range(1, len(kept), stride)
    ]
    values = list(cache._data.values())
    for ints in (products, values):
        assert len(ints) > 2 * len(set(ints))
        assert len({id(x) for x in ints}) == len(set(ints))


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
    shifts = shifts[: len(spec.vectors) - 1]
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


def test_cache_counters():
    cache = MemoCache()
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    assert cache.get("c") is None
    assert cache.get("a") == 1
    assert cache.hits == 2 and cache.misses == 1
    assert len(cache) == 2


def test_cache_rejects_conflicting_insert():
    cache = MemoCache()
    cache.put("a", 1)
    cache.put("a", 1)
    with pytest.raises(RuntimeError, match="conflicting"):
        cache.put("a", 2)


def test_every_miss_is_stored(monkeypatch):
    # no bound applies, whatever VANSCHUR_CACHE_CAPACITY says
    monkeypatch.setenv("VANSCHUR_CACHE_CAPACITY", "3")
    cache = MemoCache()
    for lam in enumerate_admissible(5, 2):
        g_coefficient(lam, 5, 2, cache)
    assert cache.misses > 3
    assert len(cache) == cache.misses


def test_shared_cache_across_specs_is_consistent():
    cache = MemoCache()
    values = [evaluate(SECOND, cache), evaluate(WORKED, cache)]
    again = [evaluate(SECOND, cache), evaluate(WORKED, cache)]
    assert values == again == [3, 6]
    assert cache.hits > 0


@pytest.mark.parametrize(
    "n, k, misses, hits",
    [(7, 1, 10180, 30882), (5, 2, 3306, 17395), (4, 3, 776, 2730)],
)
def test_memo_traffic_of_a_table_is_pinned(n, k, misses, hits):
    # one MemoCache per table; a change to the key or to the representative
    # a key is evaluated on shows up here, not only as time
    cache = MemoCache()
    for lam in enumerate_admissible(n, k):
        g_coefficient(lam, n, k, cache)
    assert (cache.misses, cache.hits) == (misses, hits)
    assert len(cache) == misses


# cheap and costly partitions of three cells, with their values and the memo
# traffic of a cold evaluation
COLD_COEFFICIENTS = [
    ((11, 10, 8, 7, 3, 3, 0), 7, 1, 36, 6, 0),
    ((6, 6, 6, 6, 6, 6, 6), 7, 1, -135135, 412, 1326),
    ((15, 15, 14, 7, 5, 4), 6, 2, 337125, 48, 124),
    ((10, 10, 10, 10, 10, 10), 6, 2, 190590400, 1285, 19953),
    ((21, 17, 11, 8, 3), 5, 3, 512442, 24, 63),
    ((15, 12, 11, 11, 11), 5, 3, -1182835500, 280, 5148),
]


@pytest.mark.parametrize("lam, n, k, value, misses, hits", COLD_COEFFICIENTS)
def test_memo_traffic_of_a_cold_coefficient_is_pinned(lam, n, k, value, misses, hits):
    # a fresh MemoCache per coefficient, as a one-off `vanschur coeff` uses
    # it
    cache = MemoCache()
    assert g_coefficient(lam, n, k, cache) == value
    assert (cache.misses, cache.hits) == (misses, hits)
    assert len(cache) == misses


@pytest.mark.parametrize(
    "lams, n, k, kept, seen",
    [
        (None, 7, 1, 1264, 1266),
        ([(10, 10, 10, 10, 10, 10)], 6, 2, 145, 1056),
    ],
)
def test_kept_companion_results_are_pinned(lams, n, k, kept, seen):
    # a table comes back to most pairs it sees, a pair being the companions
    # up to a shift of each and need less their offsets, so it soon keeps a
    # pair's companion side on its first sight; a cold coefficient comes back
    # to few, and keeps only those that come back
    cache = MemoCache()
    for lam in enumerate_admissible(n, k) if lams is None else lams:
        g_coefficient(lam, n, k, cache)
    assert len(cache.pivots) == seen
    assert sum(v is not None for v in cache.pivots.values()) == kept


def test_split_sees_only_coefficient_shaped_specs(monkeypatch):
    # the block split is tried on the spec evaluate is given and on the
    # blocks of its splits, never on a pivot child: every spec it sees has
    # all-zero companions, as a coefficient's spec does
    seen = []

    def recording(vectors, half, n):
        seen.append(vectors)
        return _split(vectors, half, n)

    monkeypatch.setattr(delta_engine, "_split", recording)
    for n, k in ((6, 1), (5, 2)):
        g_coefficients(list(enumerate_admissible(n, k)), n, k)
    for lam, n, k, value, _, _ in COLD_COEFFICIENTS:
        assert g_coefficient(lam, n, k, MemoCache()) == value
    assert len(seen) > 500
    assert all(not any(map(any, vectors[1:])) for vectors in seen)


def is_prime(m):
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def test_slot_ids_stay_distinct_under_threads():
    # the slot-id table is process-wide: vectors interned by concurrent
    # threads must still get one distinct prime each
    def intern(head):
        return [((head, j, 0), _slot((head, j, 0))) for j in range(300)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(intern, 10**6 + t) for t in range(8)]
            interned = [pair for f in futures for pair in f.result(timeout=60)]
    finally:
        sys.setswitchinterval(old)
    assert len({vec for vec, _ in interned}) == len({i for _, i in interned}) == 8 * 300
    assert all(_slot(vec) == slot_id for vec, slot_id in interned)
    assert all(is_prime(slot_id) for _, slot_id in interned)


def test_shifted_copies_take_no_new_slot_id():
    # a shifted copy of an interned vector is no new slot: the next new
    # vector must take the next prime
    base = _slot((3 * 10**6, 5, 0))
    assert _slot((3 * 10**6 + 7, 12, 7)) == base
    assert _slot((3 * 10**6 - 2, 3, -2)) == base
    fresh = _slot((3 * 10**6 + 1, 5, 0))
    assert is_prime(base) and is_prime(fresh)
    assert fresh > base and not any(map(is_prime, range(base + 1, fresh)))


def test_slot_ids_are_the_first_primes():
    # the i-th vector interned in the process gets the i-th prime, none
    # skipped: every prime up to the largest one handed out is in use
    g_coefficients(list(enumerate_admissible(5, 2)), 5, 2)
    ids = sorted(delta_engine._SLOT_IDS.values())
    assert len(ids) > 100
    sieve = [False, False] + [True] * (ids[-1] - 1)
    for m in range(2, math.isqrt(ids[-1]) + 1):
        if sieve[m]:
            sieve[m * m :: m] = [False] * len(range(m * m, ids[-1] + 1, m))
    assert ids == [m for m, prime in enumerate(sieve) if prime]
