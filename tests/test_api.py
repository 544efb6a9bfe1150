import vanschur

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    # reference code the tests compare against lives in tests/reference.py
    assert vanschur.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(vanschur, name) is not None
