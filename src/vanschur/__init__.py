"""Exact Schur-basis expansion of even Vandermonde powers.

Each coefficient is the hyperdeterminant of a sparse Kronecker-delta tensor,
evaluated independently by a generalized Laplace recursion; a brute-force
symbolic expansion serves as ground truth.

The public names resolve on first use (PEP 562), so importing the package, or
one of its modules, loads no other module: `vanschur merge` never loads the
engine or the oracle.
"""

import importlib

# each public name and the module that defines it
_HOMES = {
    "count_vanishing": "coefficients",
    "expand": "coefficients",
    "factorize_g": "coefficients",
    "g_coefficient": "coefficients",
    "g_coefficients": "coefficients",
    "DeltaSpec": "delta_engine",
    "MemoCache": "delta_engine",
    "evaluate": "delta_engine",
    "weight_ok": "delta_engine",
    "BudgetError": "oracle",
    "schur_expansion_bruteforce": "oracle",
    "vandermonde_power": "oracle",
    "enumerate_admissible": "partitions",
    "is_admissible": "partitions",
    "SchurExpansion": "records",
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
