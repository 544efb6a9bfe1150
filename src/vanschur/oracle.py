"""Independent ground truth: sparse polynomial expansion and Heine-type checks.

Nothing here shares code paths with the sparse engine. Coefficients are read
off a full symbolic expansion of the odd Vandermonde power, and the
determinant-integral identities are evaluated from first principles over
discrete measures with exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import Sequence

from .coefficients import SchurExpansion
from .hyperdet import BudgetError, DenseTensor, det_direct
from .partitions import IntVec, enumerate_admissible, is_admissible

Monomial = tuple[int, ...]
SparsePolynomial = dict[Monomial, int]

DEFAULT_MONOMIAL_BUDGET = 10**7


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


def vandermonde_power(
    n: int, e: int, budget: int = DEFAULT_MONOMIAL_BUDGET
) -> SparsePolynomial:
    """The expanded e-th power of the Vandermonde product, exactly.

    Refuses up front when the stars-and-bars bound on the monomial count
    exceeds the budget.
    """
    if n < 1 or e < 0:
        raise ValueError("need n >= 1 and e >= 0")
    bound = comb(e * n * (n - 1) // 2 + n - 1, n - 1)
    if bound > budget:
        raise BudgetError(
            f"vandermonde_power refused: up to {bound} monomials exceed budget {budget}"
        )
    if e == 0:
        return {(0,) * n: 1}
    base = vandermonde(n)
    poly = base
    for _ in range(e - 1):
        poly = poly_mul(poly, base)
    return poly


def schur_expansion_bruteforce(
    n: int, k: int, budget: int = DEFAULT_MONOMIAL_BUDGET
) -> SchurExpansion:
    """Coefficients read directly off the expansion of V^(2k+1).

    The coefficient of s_lam in V^(2k) equals the coefficient of the monomial
    z^(lam + staircase) in V^(2k+1). Every strictly decreasing exponent
    outside the admissible window is checked to carry coefficient 0.
    """
    poly = vandermonde_power(n, 2 * k + 1, budget)
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


# ---------------------------------------------------------------------------
# Heine-type determinant integrals over discrete measures


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure with exact rational weights."""

    support: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        support = tuple(Fraction(x) for x in self.support)
        weights = tuple(Fraction(w) for w in self.weights)
        if len(support) != len(weights):
            raise ValueError("support and weights must have the same length")
        if len(set(support)) != len(support):
            raise ValueError("support points must be pairwise distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class FunctionTable:
    """Values f_j^(i)(x): values[i-1][j-1][x_index], exact rationals."""

    values: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @classmethod
    def monomials(
        cls, exponents: Sequence[Sequence[int]], measure: DiscreteMeasure
    ) -> "FunctionTable":
        """Table with f_j^(i)(z) = z^exponents[i-1][j-1]."""
        vals = tuple(
            tuple(tuple(x**e for x in measure.support) for e in slot)
            for slot in exponents
        )
        return cls(values=vals)


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Plain n x n determinant by exact Gaussian elimination."""
    n = len(rows)
    mat = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                for c in range(col, n):
                    mat[r][c] -= f * mat[col][c]
    return det


def heine_lhs(mu: DiscreteMeasure, table: FunctionTable, n: int) -> Fraction:
    """(1/n!) sum over n-tuples of support points of the weighted det product."""
    if n == 0:
        return Fraction(1)
    slots = table.values
    if any(len(slot) < n for slot in slots):
        raise ValueError(f"every slot needs at least {n} functions")
    points = range(len(mu.support))
    total = Fraction(0)
    for combo in product(points, repeat=n):
        w = Fraction(1)
        for c in combo:
            w *= mu.weights[c]
        if w == 0:
            continue
        term = w
        for slot in slots:
            term *= _det_fraction([[slot[j][c] for j in range(n)] for c in combo])
            if term == 0:
                break
        total += term
    return total / factorial(n)


def heine_moment_tensor(mu: DiscreteMeasure, table: FunctionTable, n: int) -> DenseTensor:
    """Order-2k tensor of mixed moments of the table against the measure."""
    slots = table.values
    if any(len(slot) < n for slot in slots):
        raise ValueError(f"every slot needs at least {n} functions")

    def fn(idx):
        s = Fraction(0)
        for p, w in enumerate(mu.weights):
            term = w
            for slot, i in zip(slots, idx):
                term *= slot[i - 1][p]
            s += term
        return s

    return DenseTensor.from_function(len(slots), n, fn)


def heine_rhs(mu: DiscreteMeasure, table: FunctionTable, n: int) -> Fraction:
    """Hyperdeterminant of the mixed-moment tensor."""
    if n == 0:
        return Fraction(1)
    return Fraction(det_direct(heine_moment_tensor(mu, table, n)))
