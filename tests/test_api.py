import copy
import pickle

import pytest

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


def value_objects():
    from vanschur.records import ResultRecord, ShardManifest

    return [
        (vanschur.DeltaSpec(vectors=((2, 1, 1), (1, 0, 0), (1, 0, 0), (0, 0, 0))), "vectors"),
        (ResultRecord(n=3, k=1, lam=(4, 1), coeff=-3), "coeff"),
        (ShardManifest(n=3, k=1, shards=2, index=1, count=5, checksum="x"), "count"),
        (vanschur.SchurExpansion(n=2, k=1, terms={(2, 0): 1}), "terms"),
    ]


@pytest.mark.parametrize("obj, field", value_objects())
def test_value_objects_are_immutable_and_compare_by_fields(obj, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.other = 1
    twin = pickle.loads(pickle.dumps(obj))
    assert twin == obj and twin is not obj and copy.copy(obj) == obj
    assert repr(obj).startswith(f"{type(obj).__name__}(")
    assert obj != (getattr(obj, field),)
    if field != "terms":  # a dict field leaves the object unhashable
        assert hash(twin) == hash(obj)


def test_value_objects_validate_their_fields():
    from vanschur.records import ResultRecord, ShardManifest

    assert ResultRecord(n=3, k=1, lam=[4, 1], coeff=-3).lam == (4, 1, 0)
    with pytest.raises(ValueError, match="more than 2 parts"):
        ResultRecord(n=2, k=1, lam=(1, 1, 1), coeff=0)
    with pytest.raises(ValueError, match="n and k must be positive, got n=0, k=1"):
        ShardManifest(n=0, k=1, shards=1, index=0, count=0, checksum="x")
    with pytest.raises(ValueError, match="shard index 2 outside 0..1"):
        ShardManifest(n=3, k=1, shards=2, index=2, count=0, checksum="x")
