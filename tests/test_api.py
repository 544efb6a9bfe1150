import vanschur

PUBLIC = [
    "BudgetError",
    "DeltaSpec",
    "MemoCache",
    "SchurExpansion",
    "count_vanishing",
    "enumerate_admissible",
    "evaluate",
    "expand",
    "factorize_g",
    "g_coefficient",
    "g_coefficients",
    "is_admissible",
    "schur_expansion_bruteforce",
    "vandermonde_power",
    "weight_ok",
]


def test_public_names_are_pinned_and_resolve():
    # reference code the tests compare against lives in tests/reference.py
    # and tests/dense.py
    assert vanschur.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(vanschur, name) is not None
