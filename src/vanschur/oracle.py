"""Independent ground truth: the brute-force expansion of V^(2k+1).

Nothing here shares code paths with the sparse engine. Coefficients are read
off a full symbolic expansion of the odd Vandermonde power.
"""

from __future__ import annotations

from math import comb

from .partitions import IntVec, enumerate_admissible, is_admissible
from .records import SchurExpansion

Monomial = tuple[int, ...]
SparsePolynomial = dict[Monomial, int]

DEFAULT_MONOMIAL_BUDGET = 10**7


class BudgetError(RuntimeError):
    """Raised when an exact computation would exceed its size guard."""


def poly_mul(a: SparsePolynomial, b: SparsePolynomial) -> SparsePolynomial:
    out: SparsePolynomial = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def vandermonde(n: int) -> SparsePolynomial:
    """Fully expanded product of (z_i - z_j) over i < j."""
    poly: SparsePolynomial = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            zi = [0] * n
            zi[i] = 1
            zj = [0] * n
            zj[j] = 1
            poly = poly_mul(poly, {tuple(zi): 1, tuple(zj): -1})
    return poly


def vandermonde_power(n: int, e: int) -> SparsePolynomial:
    """The expanded e-th power of the Vandermonde product, exactly.

    Refuses up front when the stars-and-bars bound on the monomial count
    exceeds DEFAULT_MONOMIAL_BUDGET.
    """
    if n < 1 or e < 0:
        raise ValueError("need n >= 1 and e >= 0")
    bound = comb(e * n * (n - 1) // 2 + n - 1, n - 1)
    if bound > DEFAULT_MONOMIAL_BUDGET:
        raise BudgetError(f"vandermonde_power refused: up to {bound} monomials "
                          f"exceed budget {DEFAULT_MONOMIAL_BUDGET}")
    if e == 0:
        return {(0,) * n: 1}
    base = vandermonde(n)
    poly = base
    for _ in range(e - 1):
        poly = poly_mul(poly, base)
    return poly


def schur_expansion_bruteforce(n: int, k: int) -> SchurExpansion:
    """Coefficients read directly off the expansion of V^(2k+1).

    The coefficient of s_lam in V^(2k) equals the coefficient of the monomial
    z^(lam + staircase) in V^(2k+1). Every strictly decreasing exponent
    outside the admissible window is checked to carry coefficient 0.
    """
    poly = vandermonde_power(n, 2 * k + 1)
    staircase = tuple(range(n - 1, -1, -1))
    terms: dict[IntVec, int] = {}
    for lam in enumerate_admissible(n, k):
        terms[lam] = poly.get(tuple(l + d for l, d in zip(lam, staircase)), 0)
    for mono, c in poly.items():
        if any(mono[i] <= mono[i + 1] for i in range(n - 1)):
            continue
        lam = tuple(m - d for m, d in zip(mono, staircase))
        if c != 0 and not is_admissible(lam, n, k):
            raise AssertionError(
                f"nonzero coefficient {c} at inadmissible exponent {mono}"
            )
    return SchurExpansion(n=n, k=k, terms=terms)

