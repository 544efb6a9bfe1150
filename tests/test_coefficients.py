import pytest

from vanschur import coefficients
from vanschur.coefficients import (
    SchurExpansion,
    count_vanishing,
    expand,
    factorize_g,
    g_coefficient,
)
from vanschur.delta_engine import MemoCache
from vanschur.oracle import schur_expansion_bruteforce
from vanschur.partitions import enumerate_admissible, is_admissible


def test_single_coefficients():
    assert g_coefficient((4, 1, 1), 3, 1) == -3
    assert g_coefficient((2, 0), 2, 1) == 1
    assert g_coefficient((1, 1), 2, 1) == -3
    assert g_coefficient((0,), 1, 1) == 1
    assert g_coefficient((0,), 1, 4) == 1


def test_inadmissible_partition_vanishes_immediately():
    assert g_coefficient((3, 0), 2, 1) == 0
    assert g_coefficient((6, 0, 0), 3, 1) == 0


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
    monkeypatch.setattr(coefficients, "ProcessPoolExecutor", NoPool)
    assert list(expand(4, 1, workers=50000)) == list(expand(4, 1))


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
