"""Acceptance battery: every gating criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings as they complete. Everything asserts exact equality; there are no
tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import WORKED_TENSOR_ONES, WORKED_TENSOR_VECTORS, random_tensor
from reference import child_spec, pivot_tuples
from vanschur.cli import main as cli_main
from vanschur.coefficients import (
    count_vanishing,
    expand,
    factorize_g,
    g_coefficient,
)
from vanschur.delta_engine import (
    DeltaSpec,
    MemoCache,
    _split,
    evaluate,
    materialize,
    weight_ok,
)
from vanschur.hyperdet import det_direct, laplace_expand, minor
from vanschur.oracle import (
    DiscreteMeasure,
    FunctionTable,
    heine_lhs,
    heine_rhs,
    schur_expansion_bruteforce,
)
from vanschur.partitions import count_admissible, enumerate_admissible


def _report(num: int, started: float, note: str = "") -> None:
    extra = f" ({note})" if note else ""
    print(f"criterion {num}: PASS in {time.time() - started:.2f}s{extra}")


def test_criterion_1_worked_tensor_reproduction():
    t0 = time.time()
    spec = DeltaSpec(WORKED_TENSOR_VECTORS)
    tensor = materialize(spec)
    for idx, value in tensor.entries.items():
        assert value == (1 if idx in WORKED_TENSOR_ONES else 0)
    assert evaluate(spec) == 6
    children = {}
    for tup in pivot_tuples(spec, 1):
        children[child_spec(spec, tup).vectors] = evaluate(child_spec(spec, tup))
    assert sorted(children.values()) == [1, 1, 2, 2]
    assert children[((0, -1), (0, 0), (2, 0), (1, 0))] == 1
    assert children[((0, -1), (2, 0), (0, 0), (1, 0))] == 1
    assert children[((0, -1), (2, 1), (0, 0), (0, 0))] == 2
    assert children[((0, -1), (0, 0), (2, 1), (0, 0))] == 2
    assert time.time() - t0 < 1.0
    _report(1, t0)


def test_criterion_2_second_worked_case():
    t0 = time.time()
    assert evaluate(DeltaSpec(((4, 1, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0)))) == 3
    assert evaluate(DeltaSpec(((2, -1), (1, 0), (0, 0), (0, 0)))) == -1
    assert time.time() - t0 < 1.0
    _report(2, t0)


ORACLE_GRID = [(1, n) for n in range(2, 6)] + [(2, n) for n in range(2, 5)] + [
    (3, n) for n in range(2, 4)
]


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    for k, n in ORACLE_GRID:
        engine = expand(n, k)
        reference = schur_expansion_bruteforce(n, k)
        assert list(engine.terms) == list(reference.terms), (n, k)
        assert engine.terms == reference.terms, (n, k)
    assert time.time() - t0 < 300
    _report(3, t0, f"{len(ORACLE_GRID)} (k, n) pairs")


@lru_cache(maxsize=None)
def _count_by_dp(n: int, k: int) -> int:
    """Independent counting oracle: memoized DP over (position, sum, last part)."""
    w = k * n * (n - 1)
    upper = [0] * (n + 1)
    lower = [0] * (n + 1)
    for i in range(1, n + 1):
        upper[i] = upper[i - 1] + 2 * k * (n - i)
        lower[i] = i * k * (n - 1)

    @lru_cache(maxsize=None)
    def rec(idx: int, s: int, prev: int) -> int:
        if idx == n:
            return 1 if s == w else 0
        total = 0
        for v in range(min(prev, upper[idx + 1] - s, w - s), -1, -1):
            if s + v < lower[idx + 1]:
                break
            total += rec(idx + 1, s + v, v)
        return total

    return rec(0, 0, 2 * k * (n - 1))


# k=1, n=9: published reference grids print 28376 here, but three independent
# enumeration methods (pruned DFS, the DP above, exhaustive generation plus
# dominance filtering) agree on 26376, so the printed digit is treated as a
# transcription slip; see test_reference_grid_digit_slip_k1_n9 below.
COUNT_GRID = {
    1: [2, 5, 16, 59, 247, 1111, 5302, 26376],
    2: [3, 13, 76, 521, 3996],
    3: [4, 25, 213, 2131],
    4: [5, 41, 459, 6033],
    5: [6, 61, 846, 13771],
}


def test_criterion_4_admissible_count_grid():
    t0 = time.time()
    for k, counts in COUNT_GRID.items():
        for n, want in enumerate(counts, start=2):
            got = count_admissible(n, k)
            assert got == want, (n, k, got, want)
            assert _count_by_dp(n, k) == want, (n, k)
    assert time.time() - t0 < 60
    _report(4, t0, "26376 at k=1 n=9 per the documented digit slip")


@pytest.mark.xfail(
    strict=True,
    reason="published reference grids print 28376 admissible partitions at "
    "k=1 n=9; three independent enumeration methods agree on 26376, so the "
    "printed value is treated as a transcription slip",
)
def test_reference_grid_digit_slip_k1_n9():
    assert count_admissible(9, 1) == 28376


VANISHING_GRID = [
    # (n, k, admissible, vanishing)
    (7, 1, 1111, 0),
    (8, 1, 5302, 8),
    (6, 2, 3996, 6),
    (5, 3, 2131, 2),
    (5, 4, 6033, 16),
    (4, 5, 846, 0),
]


@pytest.mark.parametrize("n,k,admissible,vanishing", VANISHING_GRID)
def test_criterion_5_vanishing_counts(n, k, admissible, vanishing):
    t0 = time.time()
    got = count_vanishing(n, k, workers=2)
    assert got == (admissible, vanishing), (n, k, got)
    assert time.time() - t0 < 1800
    _report(5, t0, f"n={n} k={k}: {vanishing} of {admissible}")


def test_criterion_6_property_suites():
    t0 = time.time()
    rng = random.Random(20240229)

    # permutation and zero-sum shift invariance, weight vanishing
    base = DeltaSpec(((3, 1, 0), (1, 1, 0), (0, 0, 0), (1, 0, 0)))
    want = evaluate(base)
    for _ in range(10):
        perm = rng.sample(range(4), 4)
        assert evaluate(DeltaSpec(tuple(base.vectors[p] for p in perm))) == want
        shifts = [rng.randint(-3, 3) for _ in range(3)]
        shifts.append(-sum(shifts))
        shifted = tuple(
            tuple(x + m for x in v) for v, m in zip(base.vectors, shifts)
        )
        assert evaluate(DeltaSpec(shifted)) == want
    unbalanced = DeltaSpec(((1, 0), (0, 0), (0, 0), (0, 0)))
    assert not weight_ok(unbalanced) and evaluate(unbalanced) == 0

    # generalized Laplace equals the direct alternated sum
    for trial in range(8):
        t = random_tensor(rng, 4, 2 + trial % 2)
        assert laplace_expand(t, (1 + trial % 2,)) == det_direct(t)

    # two-sided determinant-integral identity over discrete measures
    for _ in range(3):
        pts = rng.sample(range(-5, 6), 3)
        mu = DiscreteMeasure(
            support=tuple(Fraction(x) for x in pts),
            weights=tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in pts),
        )
        table = FunctionTable.monomials(
            [[rng.randint(0, 3) for _ in range(3)] for _ in range(4)], mu
        )
        for n in (2, 3):
            assert heine_lhs(mu, table, n) == heine_rhs(mu, table, n)

    # factorization shortcuts agree with unfactorized evaluation
    spec = DeltaSpec(((7, 7, 4, 2, 0),) + ((0,) * 5,) * 3)
    left, right, sign = _split(spec.vectors, spec.half, spec.n)
    assert sign * evaluate(DeltaSpec(left)) * evaluate(DeltaSpec(right)) == evaluate(
        spec, factorize=False
    )
    for lam in enumerate_admissible(5, 1):
        split = factorize_g(lam, 5, 1)
        if split is not None:
            mu_, nu, m, rest = split
            assert g_coefficient(lam, 5, 1) == g_coefficient(mu_, m, 1) * g_coefficient(
                nu, rest, 1
            )

    # minors compose
    t = random_tensor(rng, 4, 4)
    outer = [(1, 2, 4), (2, 3, 4), (1, 3, 4), (1, 2, 3)]
    inner = [(1, 3), (2, 3), (1, 2), (2, 3)]
    composed = [tuple(o[i - 1] for i in inn) for o, inn in zip(outer, inner)]
    assert minor(minor(t, outer), inner).entries == minor(t, composed).entries

    # a memo shared with other specs gives the same value as a fresh one
    probe = DeltaSpec(((4, 1, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0)))
    warmed = MemoCache()
    evaluate(DeltaSpec(WORKED_TENSOR_VECTORS), warmed)
    assert evaluate(probe, MemoCache()) == evaluate(probe, warmed) == 3

    _report(6, t0)


def test_criterion_7_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for jobs in (1, 2, 8):
        path = tmp_path / f"jobs{jobs}.jsonl"
        assert (
            cli_main(
                ["expand", "--n", "6", "--k", "1", "--jobs", str(jobs),
                 "--out", str(path)]
            )
            == 0
        )
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    shard_paths = []
    for index in range(4):
        path = tmp_path / f"shard{index}.jsonl"
        assert (
            cli_main(
                ["shard", "--n", "6", "--k", "1", "--shards", "4",
                 "--index", str(index), "--out", str(path)]
            )
            == 0
        )
        shard_paths.append(str(path))
    merged = tmp_path / "merged.jsonl"
    assert cli_main(["merge", *shard_paths, "--out", str(merged)]) == 0
    assert merged.read_bytes() == outputs[0]
    _report(7, t0)


def test_criterion_8_corrected_split_guard():
    t0 = time.time()
    lam, n, k = (7, 7, 4, 2, 0), 5, 1
    mu, nu, m, rest = factorize_g(lam, n, k)
    assert (mu, nu, m, rest) == ((1, 1), (4, 2, 0), 2, 3)
    direct = g_coefficient(lam, n, k)
    assert g_coefficient(mu, m, k) * g_coefficient(nu, rest, k) == direct
    # substituting the uncorrected head offset 2k(m-1) must break the identity
    bad_mu = tuple(x - 2 * k * (m - 1) for x in lam[:m])
    assert g_coefficient(bad_mu, m, k) * g_coefficient(nu, rest, k) != direct
    _report(8, t0)
