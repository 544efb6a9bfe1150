import time
from itertools import islice, zip_longest

import pytest
from hypothesis import given
import hypothesis.strategies as st

from reference import AdmissibleBounds, dominates, enumerate_admissible_reference
from vanschur.partitions import (
    as_partition,
    count_admissible,
    deal,
    enumerate_admissible,
    gather,
    is_admissible,
    pair_class,
)


partitions = st.lists(st.integers(0, 8), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_dominates_examples():
    assert dominates((2, 0), (1, 1))
    assert not dominates((3, 1, 1, 1), (2, 2, 2, 0))
    assert not dominates((2, 2, 2, 0), (3, 1, 1, 1))
    assert dominates((1, 1), (1, 1))


def test_dominates_pads_shorter_argument():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))


def test_dominates_rejects_weight_mismatch():
    with pytest.raises(ValueError, match="incomparable"):
        dominates((2, 0), (1, 0))


@given(partitions)
def test_dominates_is_reflexive(lam):
    assert dominates(lam, lam)


@given(partitions, partitions)
def test_dominates_antisymmetric_on_distinct(a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    if sum(a) != sum(b) or a == b:
        return
    assert not (dominates(a, b) and dominates(b, a))


def test_bounds_shape():
    bounds = AdmissibleBounds.of(5, 2)
    assert bounds.upper == (16, 12, 8, 4, 0)
    assert bounds.lower == (8, 8, 8, 8, 8)
    assert sum(bounds.upper) == sum(bounds.lower) == bounds.target_weight == 40


def test_is_admissible_examples():
    assert is_admissible((2, 0), 2, 1)
    assert is_admissible((1, 1), 2, 1)
    assert not is_admissible((3, 0), 2, 1)
    assert not is_admissible((1, 1, 1), 2, 1)  # too many parts
    assert not is_admissible((2, 1), 2, 1)  # wrong weight
    # a part that is not an int is refused, not rounded: int() would make
    # both (4, 1, 1), which is admissible
    assert not is_admissible((4.9, 1, 1), 3, 1)
    assert not is_admissible(("4", "1", "1"), 3, 1)


def test_enumeration_small():
    assert list(enumerate_admissible(2, 1)) == [(2, 0), (1, 1)]
    assert list(enumerate_admissible(1, 5)) == [(0,)]
    assert count_admissible(5, 1) == 59
    assert count_admissible(6, 2) == 3996


@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_agrees_with_the_enumeration(k):
    # the count is layered over prefix sums, never walking the partitions
    for n in range(1, 9):
        assert count_admissible(n, k) == sum(1 for _ in enumerate_admissible(n, k)), n


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (6, 1), (4, 2), (3, 4)])
def test_enumeration_is_strictly_reverse_lex(n, k):
    out = list(enumerate_admissible(n, k))
    assert all(a > b for a, b in zip(out, out[1:]))
    assert len(set(out)) == len(out)
    assert all(is_admissible(lam, n, k) for lam in out)
    assert all(len(lam) == n for lam in out)


def all_partitions_bounded(w, slots, cap):
    """Independent generator: every partition of w into <= slots parts <= cap."""
    if slots == 0:
        if w == 0:
            yield ()
        return
    for v in range(min(cap, w), -1, -1):
        if v == 0:
            if w == 0:
                yield (0,) * slots
            return
        for tail in all_partitions_bounded(w - v, slots - 1, v):
            yield (v,) + tail


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 1), (4, 2), (5, 2), (4, 3)])
def test_enumeration_complete_against_exhaustive_filter(n, k):
    w = k * n * (n - 1)
    brute = sorted(
        (
            lam
            for lam in all_partitions_bounded(w, n, w)
            if is_admissible(lam, n, k)
        ),
        reverse=True,
    )
    assert list(enumerate_admissible(n, k)) == brute


@pytest.mark.parametrize(
    "n,k", [(3, 1), (4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (4, 3)]
)
def test_is_admissible_is_the_dominance_interval(n, k):
    # is_admissible reads precomputed prefix-sum bounds; the definition is
    # the dominance interval between the staircase and the flat partition
    bounds = AdmissibleBounds.of(n, k)
    w = bounds.target_weight
    for lam in all_partitions_bounded(w, n, w):
        want = dominates(bounds.upper, lam) and dominates(lam, bounds.lower)
        assert is_admissible(lam, n, k) == want, lam


# every cell with n <= 9 and k <= 3 except the three largest, (8,3), (9,2)
# and (9,3) with 3.6M, 2.6M and 46.9M partitions, which take minutes against
# the reference generator; and (5,4)
REFERENCE_CELLS = [
    (n, k) for n in range(1, 10) for k in range(1, 4) if (n, k) not in {(8, 3), (9, 2), (9, 3)}
] + [(5, 4)]


@pytest.mark.parametrize("n,k", REFERENCE_CELLS)
def test_enumeration_matches_the_generator_per_part(n, k):
    missing = object()
    pairs = zip_longest(enumerate_admissible(n, k), enumerate_admissible_reference(n, k),
                        fillvalue=missing)
    assert all(a == b for a, b in pairs)


def test_enumeration_is_lazy():
    # (60,5) has far too many partitions to list; the first comes at once
    start = time.perf_counter()
    first = next(enumerate_admissible(60, 5))
    assert time.perf_counter() - start < 1.0
    assert first == AdmissibleBounds.of(60, 5).upper
    head = list(islice(enumerate_admissible(60, 5), 200))
    assert head == list(islice(enumerate_admissible_reference(60, 5), 200))


def test_as_partition_validation():
    assert as_partition((3, 1), 4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((1, -1))
    with pytest.raises(ValueError):
        as_partition((1, 1, 1), 2)
    # only parts whose type is exactly int: no bool, float or string
    for entries in [(True, False), (4.5, 1, 1), (4.0, 1), ("4", "1"), (3, 1.0)]:
        with pytest.raises(ValueError, match="is not an int"):
            as_partition(entries)
    assert as_partition([4, 1], 3) == (4, 1, 0)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (3, 2), (5, 1), (6, 1), (4, 3)])
def test_pair_class_is_that_of_the_smaller_complement_member(n, k):
    # both members of a pair, the self-complementary ones included, get the
    # class of the lexicographically smaller one
    top = 2 * k * (n - 1)
    for lam in enumerate_admissible(n, k):
        comp = tuple(top - x for x in reversed(lam))
        mu = min(lam, comp)
        third = mu[2] if n > 2 else 0
        assert pair_class(lam, n, k, 2) == pair_class(comp, n, k, 2) == (mu[0] + third) % 2
        for classes in (1, 3, 4):
            want = ((mu[0] + third) % 2 + 2 * (mu[0] // 2)) % classes
            assert pair_class(lam, n, k, classes) == pair_class(comp, n, k, classes) == want


@pytest.mark.parametrize("classes", [1, 2, 3, 4])
def test_gather_undoes_deal(classes):
    lams = list(enumerate_admissible(8, 1))
    parts = deal(lams, 8, 1, classes)
    # part j is what shard j's one-pass filter keeps
    assert parts == [[lam for lam in lams if pair_class(lam, 8, 1, classes) == j]
                     for j in range(classes)]
    assert gather(lams, 8, 1, classes, parts) == lams


@pytest.mark.parametrize("classes", [1, 2, 3])
def test_a_short_part_leaves_none_at_the_later_positions_of_its_class(classes):
    lams = list(enumerate_admissible(6, 1))
    parts = deal(lams, 6, 1, classes)
    kept = len(parts[-1]) - 3
    parts[-1] = iter(parts[-1][:kept])
    gathered = gather(lams, 6, 1, classes, parts)
    mine = [pos for pos, lam in enumerate(lams) if pair_class(lam, 6, 1, classes) == classes - 1]
    late = set(mine[kept:])
    assert len(late) == 3
    assert gathered == [None if pos in late else lam for pos, lam in enumerate(lams)]
