import concurrent.futures
import math
import random

import pytest

from vanschur import coefficients, delta_engine
from vanschur.coefficients import (
    SchurExpansion,
    count_vanishing,
    expand,
    factorize_g,
    g_coefficient,
    g_coefficients,
)
from vanschur.delta_engine import MemoCache, _slot
from vanschur.oracle import schur_expansion_bruteforce
from vanschur.partitions import enumerate_admissible, is_admissible, pair_class


def test_single_coefficients():
    assert g_coefficient((4, 1, 1), 3, 1) == -3
    assert g_coefficient((2, 0), 2, 1) == 1
    assert g_coefficient((1, 1), 2, 1) == -3
    assert g_coefficient((0,), 1, 1) == 1
    assert g_coefficient((0,), 1, 4) == 1


def test_inadmissible_partition_vanishes_immediately():
    assert g_coefficient((3, 0), 2, 1) == 0
    assert g_coefficient((6, 0, 0), 3, 1) == 0


def test_a_partition_of_non_ints_is_refused_not_rounded():
    # int() would read each of these as (4, 1, 1), whose coefficient is -3
    for lam in [(4.5, 1, 1), [4.0, 1, 1], (True, 1, 1)]:
        with pytest.raises(ValueError, match="is not an int"):
            g_coefficient(lam, 3, 1)
        with pytest.raises(ValueError, match="is not an int"):
            g_coefficients([(4, 1, 1), lam], 3, 1)
    table = expand(3, 1)
    assert table.coefficient([4, 1, 1]) == -3
    with pytest.raises(ValueError, match="is not an int"):
        table.coefficient((4.0, 1, 1))


def test_coefficients_match_bruteforce_even_off_window():
    # exhaustively: every strictly decreasing exponent of V^(2k+1) either
    # sits in the admissible window or carries coefficient zero, and inside
    # the window the engine agrees (n <= 4, k <= 2)
    for n, k in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)):
        reference = schur_expansion_bruteforce(n, k)
        for lam, want in reference:
            assert g_coefficient(lam, n, k) == want


def test_expand_small():
    exp = expand(2, 1)
    assert exp.terms == {(2, 0): 1, (1, 1): -3}
    assert list(exp.terms) == [(2, 0), (1, 1)]
    assert expand(1, 3).terms == {(0,): 1}


def test_expand_uses_shared_cache_for_speed():
    cache = MemoCache()
    values = [g_coefficient(lam, 5, 1, cache) for lam in enumerate_admissible(5, 1)]
    assert values == [g for _, g in expand(5, 1)]


def test_count_vanishing_small():
    assert count_vanishing(6, 1) == (247, 0)
    assert count_vanishing(4, 2) == (76, 0)


def test_count_vanishing_counts_as_the_terms_come(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("count_vanishing built the table")

    monkeypatch.setattr(coefficients, "SchurExpansion", never)
    assert count_vanishing(6, 2) == (3996, 6)


def test_iter_terms_takes_one_partition_per_term():
    drawn = []

    def enumeration():
        for lam in enumerate_admissible(6, 1):
            drawn.append(lam)
            yield lam

    terms = coefficients.iter_terms(enumeration(), 6, 1)
    for pos, (lam, g) in enumerate(terms, start=1):
        assert len(drawn) == pos and drawn[-1] == lam
        assert g == g_coefficient(lam, 6, 1)
    assert pos == 247


def test_expansion_vanishing_listing():
    exp = expand(6, 2)
    zeros = exp.vanishing()
    assert len(zeros) == 6
    assert all(exp.terms[lam] == 0 for lam in zeros)
    assert all(is_admissible(lam, 6, 2) for lam in zeros)


def test_expand_worker_counts_agree():
    serial = expand(5, 2, workers=1)
    two = expand(5, 2, workers=2)
    assert serial == two
    assert list(serial.terms) == list(two.terms)


@pytest.mark.parametrize("cpus", [1, None])
def test_workers_are_capped_by_the_cpu_count(monkeypatch, cpus):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(coefficients.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert list(expand(4, 1, workers=50000)) == list(expand(4, 1))


@pytest.mark.parametrize("workers", [0, -1])
def test_fewer_than_one_worker_is_refused(workers):
    with pytest.raises(ValueError, match="^workers must be >= 1$"):
        coefficients.iter_terms(enumerate_admissible(3, 1), 3, 1, workers)
    with pytest.raises(ValueError, match="^workers must be >= 1$"):
        g_coefficients([(4, 1, 1)], 3, 1, workers)


def complement(lam, n, k):
    return tuple(2 * k * (n - 1) - x for x in reversed(lam))


@pytest.mark.parametrize("n,k", [(6, 1), (7, 1), (5, 2), (4, 3)])
def test_complement_identity_over_whole_tables(n, k):
    # tables evaluate one member of each complement pair; this keeps the
    # engine checked on the member they skip
    lams = list(enumerate_admissible(n, k))
    comps = [complement(lam, n, k) for lam in lams]
    assert all(is_admissible(c, n, k) for c in comps)
    direct, flipped = MemoCache(), MemoCache()
    assert [g_coefficient(lam, n, k, direct) for lam in lams] == [
        g_coefficient(c, n, k, flipped) for c in comps
    ]


class InlinePool:
    """A process pool that runs its jobs here, one after the other."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


@pytest.mark.parametrize("workers", [1, 2])
def test_each_complement_class_is_evaluated_once(monkeypatch, workers):
    n, k = 5, 2
    lams = list(enumerate_admissible(n, k))
    calls = []

    def recording(lam, n, k, cache=None):
        calls.append(lam)
        return g_coefficient(lam, n, k, cache)

    monkeypatch.setattr(coefficients, "g_coefficient", recording)
    monkeypatch.setattr(coefficients.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    values = g_coefficients(lams, n, k, workers)
    distinct = list(dict.fromkeys(min(lam, complement(lam, n, k)) for lam in lams))
    # worker j of W takes the distinct members of class j, in order
    assert calls == [
        lam for j in range(workers) for lam in distinct if pair_class(lam, n, k, workers) == j
    ]
    assert values == [g_coefficient(lam, n, k) for lam in lams]


@pytest.mark.parametrize("n, k", [(7, 1), (5, 2), (4, 3)])
def test_each_worker_runs_what_its_shard_runs(monkeypatch, n, k):
    # worker j of expand(n, k, 2) makes the g_coefficient calls, and its memo
    # the misses and hits, of iter_terms over class j of the enumeration, as
    # `shard --shards 2 --index j` runs it
    calls: dict = {}

    def recording(lam, n, k, cache=None):
        calls.setdefault(id(cache), [cache, []])[1].append(lam)
        return g_coefficient(lam, n, k, cache)

    def traffic(run):
        calls.clear()
        values = list(run())
        return values, [(lams, c.misses, c.hits) for c, lams in calls.values()]

    monkeypatch.setattr(coefficients, "g_coefficient", recording)
    monkeypatch.setattr(coefficients.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    lams = list(enumerate_admissible(n, k))
    pooled, workers = traffic(lambda: expand(n, k, 2))
    shards = []
    for j in range(2):
        mine = [lam for lam in lams if pair_class(lam, n, k, 2) == j]
        shards.append(traffic(lambda: coefficients.iter_terms(mine, n, k)))
    assert len(workers) == 2
    assert workers == [trace for _, (trace,) in shards]
    assert pooled == [(lam, g) for lam, g in expand(n, k)]
    assert sorted(pooled) == sorted(term for terms, _ in shards for term in terms)


@pytest.mark.parametrize(
    "n, k, misses", [(7, 1, 4889), (5, 2, 1639), (4, 3, 499)],
)
def test_memo_misses_summed_over_two_workers_are_pinned(monkeypatch, n, k, misses):
    # members that share subproblems share a class, so two workers miss
    # little more than one serial memo (4181, 1477 and 440); giving member j
    # to worker j mod 2 missed 5669, 1906 and 570 times
    caches = []

    class Recorded(MemoCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(coefficients, "MemoCache", Recorded)
    monkeypatch.setattr(coefficients.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    g_coefficients(list(enumerate_admissible(n, k)), n, k, 2)
    assert len(caches) == 2
    assert sum(c.misses for c in caches) == misses


@pytest.mark.parametrize(
    "n, k, misses, hits",
    [(6, 1, 661, 1246), (7, 1, 4181, 11969), (5, 2, 1477, 7384), (4, 3, 440, 1452)],
)
def test_memo_traffic_of_g_coefficients_is_pinned(monkeypatch, n, k, misses, hits):
    # the smaller members of a table share far more of their subproblems
    # than the whole table does (pinned per partition in test_delta_engine)
    caches = []

    class Recorded(MemoCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(coefficients, "MemoCache", Recorded)
    g_coefficients(list(enumerate_admissible(n, k)), n, k)
    assert [(c.misses, c.hits, len(c)) for c in caches] == [(misses, hits, misses)]


@pytest.mark.parametrize(
    "lams, n, k, calls, first_sights, markers",
    [
        (None, 7, 1, 941, 935, 7),
        ([(10, 10, 10, 10, 10, 10)], 6, 2, 1201, 1056, 1056),
    ],
)
def test_pivot_enumerations_of_g_coefficients_are_pinned(
    monkeypatch, lams, n, k, calls, first_sights, markers
):
    # a pair is the companions up to a shift of each and need less their
    # offsets, as the engine keys it. A first sight of a pair that leaves a
    # marker enumerates from the pivot child's prime (ids != 1), and a second
    # sight keeps the companion side; once most sights are returns, a first
    # sight keeps it at once, and such a pair is never enumerated again.
    enumerations: dict = {}

    def recording(rest, need, ids):
        if len(rest[0]) > 2:
            pair = (math.prod(map(_slot, rest)), need - sum(v[-1] for v in rest))
            enumerations.setdefault(pair, []).append(ids != 1)
        return pivot_children(rest, need, ids)

    pivot_children = delta_engine._pivot_children
    monkeypatch.setattr(delta_engine, "_pivot_children", recording)
    if lams is None:
        lams = list(enumerate_admissible(n, k))
    g_coefficients(lams, n, k)
    runs = list(enumerations.values())
    assert (sum(map(len, runs)), len(runs), sum(run[0] for run in runs)) == (
        calls, first_sights, markers
    )
    assert all(run in ([True], [False], [True, False]) for run in runs)


def loop_outcome(lams, n, k):
    try:
        return [g_coefficient(lam, n, k) for lam in lams]
    except ValueError as exc:
        return f"ValueError: {exc}"


def list_outcome(lams, n, k):
    try:
        return g_coefficients(lams, n, k)
    except ValueError as exc:
        return f"ValueError: {exc}"


shuffled_5_2 = list(enumerate_admissible(5, 2))
random.Random(7).shuffle(shuffled_5_2)


@pytest.mark.parametrize(
    "lams, n, k",
    [
        ([(4, 2), [4, 1, 1], (2, 2, 2), (4,)], 3, 1),
        ([(4, 1, 1), (2, 2, 2), (4, 1, 1), (3, 2, 1), (2, 2, 2), (3, 2, 1)], 3, 1),
        ([(6, 0, 0), (5, 1, 0), (9, 0, 0), (1, 1, 1), (4, 2, 0), ()], 3, 1),
        ([(4, 1, 1), (1, 2, 3), (1, 1, 1, 1)], 3, 1),
        ([(4, 1, 1), (1, 1, 1, 1), (1, 2, 3)], 3, 1),
        ([(4, 1, 1), (2, 2, -2)], 3, 1),
        (shuffled_5_2 + shuffled_5_2[:50] + [(16, 4, 0, 0, 0)], 5, 2),
        ([], 0, 1),
        ([()], 0, 1),
        ([(1,)], 0, 1),
    ],
)
def test_g_coefficients_agrees_with_a_g_coefficient_loop(lams, n, k):
    # short, repeated, inadmissible (parts above 2k(n-1) too) and malformed
    # partitions: the same values, or the same ValueError
    assert list_outcome(lams, n, k) == loop_outcome(lams, n, k)


def test_factorize_g_example():
    split = factorize_g((7, 7, 4, 2, 0), 5, 1)
    assert split == ((1, 1), (4, 2, 0), 2, 3)
    mu, nu, m, rest = split
    assert g_coefficient((7, 7, 4, 2, 0), 5, 1) == g_coefficient(
        mu, m, 1
    ) * g_coefficient(nu, rest, 1)


def test_factorize_g_staircase_splits_everywhere():
    n, k = 5, 2
    lam = tuple(2 * k * (n - 1 - i) for i in range(n))
    # the trailing condition holds at every cut
    for m in range(1, n):
        assert sum(lam[m:]) == k * (n - m) * (n - m - 1)
    split = factorize_g(lam, n, k)
    assert split is not None
    mu, nu, m, rest = split
    assert m == 1
    assert g_coefficient(lam, n, k) == g_coefficient(mu, m, k) * g_coefficient(
        nu, rest, k
    )


def test_factorize_g_none():
    assert factorize_g((1, 1), 2, 1) is None


def test_factorize_g_rejects_inadmissible():
    with pytest.raises(ValueError, match="not admissible"):
        factorize_g((3, 0), 2, 1)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2)])
def test_factorize_g_identity_whenever_it_fires(n, k):
    fired = 0
    for lam in enumerate_admissible(n, k):
        split = factorize_g(lam, n, k)
        if split is None:
            continue
        mu, nu, m, rest = split
        assert g_coefficient(lam, n, k) == g_coefficient(mu, m, k) * g_coefficient(
            nu, rest, k
        )
        fired += 1
    if n >= 3:
        assert fired >= 1


def test_uncorrected_head_offset_breaks_the_identity():
    # lowering the leading block by 2k(m-1) instead of 2k(n-m) must be
    # detectably wrong; this guards the corrected split rule
    lam, n, k = (7, 7, 4, 2, 0), 5, 1
    mu, nu, m, rest = factorize_g(lam, n, k)
    bad_mu = tuple(x - 2 * k * (m - 1) for x in lam[:m])
    good = g_coefficient(mu, m, k) * g_coefficient(nu, rest, k)
    bad = g_coefficient(bad_mu, m, k) * g_coefficient(nu, rest, k)
    direct = g_coefficient(lam, n, k)
    assert good == direct
    assert bad != direct


def test_uncorrected_offset_fails_somewhere_on_every_small_grid():
    k = 1
    broken = 0
    for n in (4, 5):
        for lam in enumerate_admissible(n, k):
            split = factorize_g(lam, n, k)
            if split is None:
                continue
            mu, nu, m, rest = split
            bad_mu = tuple(x - 2 * k * (m - 1) for x in lam[:m])
            if any(
                bad_mu[i] < bad_mu[i + 1] for i in range(len(bad_mu) - 1)
            ) or (bad_mu and bad_mu[-1] < 0):
                broken += 1  # not even a partition
                continue
            if g_coefficient(bad_mu, m, k) * g_coefficient(
                nu, rest, k
            ) != g_coefficient(lam, n, k):
                broken += 1
    assert broken > 0


def test_schur_expansion_container():
    exp = SchurExpansion(n=2, k=1, terms={(2, 0): 1, (1, 1): -3})
    assert exp.coefficient((2, 0)) == 1
    assert exp.coefficient((1, 1)) == -3
    assert len(exp) == 2
    assert exp.vanishing() == []
