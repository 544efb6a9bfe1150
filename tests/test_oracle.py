import random
from fractions import Fraction
from math import factorial

import pytest

from dense import (
    DiscreteMeasure,
    FunctionTable,
    det_direct,
    hankel_tensor,
    heine_lhs,
    heine_moment_tensor,
    heine_rhs,
)
from vanschur.coefficients import g_coefficient
from vanschur.delta_engine import MemoCache
from vanschur.oracle import (
    BudgetError,
    poly_mul,
    schur_expansion_bruteforce,
    vandermonde_power,
)


def test_vandermonde_power_small():
    assert vandermonde_power(2, 2) == {(2, 0): 1, (1, 1): -2, (0, 2): 1}
    assert vandermonde_power(2, 3) == {(3, 0): 1, (2, 1): -3, (1, 2): 3, (0, 3): -1}
    v3 = vandermonde_power(3, 1)
    assert len(v3) == 6
    assert set(v3.values()) == {1, -1}


def test_vandermonde_power_zero_exponent():
    assert vandermonde_power(3, 0) == {(0, 0, 0): 1}


def test_vandermonde_power_is_multiplicative():
    for n in (2, 3):
        lhs = vandermonde_power(n, 5)
        rhs = poly_mul(vandermonde_power(n, 2), vandermonde_power(n, 3))
        assert lhs == rhs


def test_vandermonde_power_budget_refusal():
    with pytest.raises(BudgetError, match="budget"):
        vandermonde_power(12, 9)


def test_bruteforce_small_expansions():
    exp = schur_expansion_bruteforce(2, 1)
    assert exp.terms == {(2, 0): 1, (1, 1): -3}
    assert schur_expansion_bruteforce(1, 3).terms == {(0,): 1}


def test_bruteforce_three_letters():
    exp = schur_expansion_bruteforce(3, 1)
    assert len(exp) == 5
    assert exp.coefficient((4, 1, 1)) == g_coefficient((4, 1, 1), 3, 1) == -3


@pytest.mark.parametrize("n,k", [(8, 1), (9, 1), (6, 2), (5, 4)])
def test_rectangle_coefficient_closed_form(n, k):
    # the rectangle (k(n-1))^n has a closed-form coefficient,
    # (-1)^(k n(n-1)/2) (n(k+1))! / (n! ((k+1)!)^n); it is among the costliest
    # to compute, so this checks the engine at full depth at sizes the brute
    # force cannot reach
    top = factorial(n * (k + 1))
    bottom = factorial(n) * factorial(k + 1) ** n
    assert top % bottom == 0
    sign = -1 if k * n * (n - 1) // 2 % 2 else 1
    assert g_coefficient((k * (n - 1),) * n, n, k, MemoCache()) == sign * (top // bottom)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)])
def test_bruteforce_admissibility_necessity_holds(n, k):
    # the expansion runs its internal check that nothing survives outside
    # the dominance window
    schur_expansion_bruteforce(n, k)


def test_measure_validation():
    with pytest.raises(ValueError, match="distinct"):
        DiscreteMeasure(support=(Fraction(1), Fraction(1)), weights=(1, 1))
    with pytest.raises(ValueError, match="length"):
        DiscreteMeasure(support=(Fraction(1),), weights=(1, 2))


def _random_measure(rng: random.Random, points: int) -> DiscreteMeasure:
    support = rng.sample(range(-6, 7), points)
    return DiscreteMeasure(
        support=tuple(Fraction(x, rng.randint(1, 3)) for x in support),
        weights=tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(points)
        ),
    )


def _random_table(rng: random.Random, slots: int, n: int, mu: DiscreteMeasure):
    exponents = [[rng.randint(0, 4) for _ in range(n)] for _ in range(slots)]
    return FunctionTable.monomials(exponents, mu)


def test_heine_single_point_support_vanishes():
    mu = DiscreteMeasure(support=(Fraction(2),), weights=(Fraction(1),))
    table = FunctionTable.monomials(((0, 1), (0, 1), (1, 2), (0, 2)), mu)
    assert heine_lhs(mu, table, 2) == 0
    assert heine_rhs(mu, table, 2) == 0


def test_heine_empty_product_convention():
    mu = DiscreteMeasure(support=(Fraction(1),), weights=(Fraction(1),))
    table = FunctionTable.monomials(((0,), (0,), (0,), (0,)), mu)
    assert heine_lhs(mu, table, 0) == 1
    assert heine_rhs(mu, table, 0) == 1


def test_heine_identity_on_seeded_measures():
    rng = random.Random(20241101)
    for _ in range(6):
        points = rng.choice((2, 3))
        mu = _random_measure(rng, points)
        for n in (1, 2, 3):
            table = _random_table(rng, 4, n, mu)
            assert heine_lhs(mu, table, n) == heine_rhs(mu, table, n)


def test_heine_identity_order_two():
    rng = random.Random(7)
    mu = _random_measure(rng, 3)
    table = _random_table(rng, 2, 2, mu)
    assert heine_lhs(mu, table, 2) == heine_rhs(mu, table, 2)


def test_moment_tensor_is_shifted_hankel():
    # slot 1 evaluates z^(lam[n-j] + j - 1), the others z^(j-1); the mixed
    # moment tensor is then exactly the shifted Hankel tensor whose first
    # shift vector is lam reversed.
    lam = (3, 1, 0)
    n = 3
    mu = DiscreteMeasure(
        support=(Fraction(1), Fraction(-2), Fraction(1, 2)),
        weights=(Fraction(1, 2), Fraction(3), Fraction(-1)),
    )
    slot1 = tuple(lam[n - j] + j - 1 for j in range(1, n + 1))
    flat = tuple(range(n))
    table = FunctionTable.monomials((slot1, flat, flat, flat), mu)
    tensor = heine_moment_tensor(mu, table, n)

    def moments(s: int) -> Fraction:
        return sum(w * x**s for x, w in zip(mu.support, mu.weights))

    shifted = hankel_tensor(
        moments, n, 4, [tuple(reversed(lam)), (0,) * n, (0,) * n, (0,) * n]
    )
    assert tensor.entries == shifted.entries
    assert heine_lhs(mu, table, n) == det_direct(shifted)


def test_hankel_all_zero_shifts_constant_function():
    t = hankel_tensor(lambda _: 1, 4, 2, [(0,) * 4, (0,) * 4])
    assert det_direct(t) == 0  # rank-one matrix of ones
