"""Exact Schur-basis expansion of even Vandermonde powers.

Each coefficient is the hyperdeterminant of a sparse Kronecker-delta tensor,
evaluated independently by a generalized Laplace recursion; a brute-force
symbolic expansion serves as ground truth.
"""

from .coefficients import (
    SchurExpansion,
    count_vanishing,
    expand,
    factorize_g,
    g_coefficient,
    g_coefficients,
)
from .delta_engine import (
    DeltaSpec,
    MemoCache,
    evaluate,
    materialize,
    weight_ok,
)
from .hyperdet import (
    BudgetError,
    DenseTensor,
    det_direct,
    hankel_tensor,
    laplace_expand,
    laplace_sign,
    minor,
)
from .oracle import (
    DiscreteMeasure,
    FunctionTable,
    heine_lhs,
    heine_rhs,
    schur_expansion_bruteforce,
    vandermonde_power,
)
from .partitions import (
    AdmissibleBounds,
    dominates,
    enumerate_admissible,
    is_admissible,
)

__all__ = [
    "AdmissibleBounds",
    "BudgetError",
    "DeltaSpec",
    "DenseTensor",
    "DiscreteMeasure",
    "FunctionTable",
    "MemoCache",
    "SchurExpansion",
    "count_vanishing",
    "det_direct",
    "dominates",
    "enumerate_admissible",
    "evaluate",
    "expand",
    "factorize_g",
    "g_coefficient",
    "g_coefficients",
    "hankel_tensor",
    "heine_lhs",
    "heine_rhs",
    "is_admissible",
    "laplace_expand",
    "laplace_sign",
    "materialize",
    "minor",
    "schur_expansion_bruteforce",
    "vandermonde_power",
    "weight_ok",
]

__version__ = "0.1.0"
