"""Literal reference sums the suite checks the library against. The dense
hyperdeterminants, the dense tensor of a spec and the Heine checks are in
`dense.py`; what is here spells out, step by step, what the library does in
one go.

`pivot_tuples`, `child_spec` and `iter_subspecs` spell out the i_1 pivot step
of the generalized Laplace recursion tuple by tuple, without the grouping,
merging or factorization of the engine. `canonical_key` spells out the
symmetry class the engine's memo key stands for, with the vectors themselves
in place of interned slot ids. `det_direct_reference` is the p-fold
permutation sum with the explicit 1/n! factor, without the normalization of
`dense.det_direct`.

`AdmissibleBounds` and `dominates` are the definition of an admissible
partition: one between the flat lower bound and the staircase upper bound in
dominance order, compared prefix sum by prefix sum. The library tests
membership against precomputed prefix-sum bounds instead.

`enumerate_admissible_reference` is the admissible enumeration as one
generator per part. `record_to_jsonl_reference`, `record_to_csv_reference`,
`record_from_jsonl_reference`, `record_from_csv_reference` and
`enumeration_checksum_reference` are the record codec and enumeration digest
spelled out with `json`, a regular expression per field, the checking
`ResultRecord` constructor and one hash update per partition.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator, Sequence

from dense import DEFAULT_TERM_LIMIT, DenseTensor, Value
from vanschur.delta_engine import DeltaSpec, weight_ok
from vanschur.oracle import BudgetError
from vanschur.partitions import IntVec, _prefix_bounds, as_partition
from vanschur.records import ResultRecord


def canonical_key(vectors: tuple[IntVec, ...]):
    """Quotient of a spec by vector permutations and zero-sum entry shifts:
    each vector shifted to end in 0, sorted, with the total offset."""
    shift = 0
    norms = []
    for v in vectors:
        off = v[-1]
        if off:
            shift += off
            norms.append(tuple(x - off for x in v))
        else:
            norms.append(v)
    norms.sort()
    return (tuple(norms), shift)


def delta_target(spec: DeltaSpec) -> int:
    """(2K-1)n + 1: the sum of shifted entries and indices at a 1 of the tensor."""
    return (len(spec.vectors) - 1) * spec.n + 1


def pivot_tuples(spec: DeltaSpec, i1: int) -> list[IntVec]:
    """All index tuples (i1, i_2, ..., i_2K) hitting the delta target.

    Fixes i_2 .. i_{2K-1} and solves for the last index; the per-slot value
    i -> v[n-i+1] + i is strictly increasing, so there is at most one
    solution for each prefix.
    """
    n = spec.n
    if not 1 <= i1 <= n:
        raise ValueError(f"i1 must lie in 1..{n}")
    vectors = spec.vectors
    remaining = delta_target(spec) - vectors[0][n - i1] - i1
    last = vectors[-1]
    solve = {last[n - i] + i: i for i in range(1, n + 1)}
    # what each prefix of middle indices leaves for the last slot, one
    # middle slot at a time; prefixes stay in lexicographic order
    left: dict[IntVec, int] = {(i1,): remaining}
    for v in vectors[1:-1]:
        terms = [(i, v[n - i] + i) for i in range(1, n + 1)]
        left = {prefix + (i,): rest - t for prefix, rest in left.items() for i, t in terms}
    return [prefix + (solve[rest],) for prefix, rest in left.items() if rest in solve]


def child_spec(spec: DeltaSpec, tup: Sequence[int]) -> DeltaSpec:
    """Dimension n-1 spec left after striking the tuple's slice per slot.

    Slot 1 deletes position n-i+1, lowering earlier entries by 2(K-1) and
    later ones by 2(K-1)+1; every other slot deletes its position and raises
    the earlier entries by 1.
    """
    n = spec.n
    tup = tuple(tup)
    if len(tup) != len(spec.vectors) or any(not 1 <= i <= n for i in tup):
        raise ValueError(f"bad index tuple {list(tup)}")
    total = sum(v[n - i] for v, i in zip(spec.vectors, tup)) + sum(tup)
    if total != delta_target(spec):
        raise ValueError(f"tuple {list(tup)} misses the delta target (caller bug)")
    return DeltaSpec(tuple(ways[i] for ways, i in zip(_strikes(spec), tup)))


def _strikes(spec: DeltaSpec) -> list[list[IntVec | None]]:
    """Per slot, its vector struck at each index i in 1..n (entry i), as
    child_spec strikes it; each distinct companion vector is struck once."""
    n = spec.n
    drop = 2 * (spec.half - 1)
    first, companions = spec.vectors[0], spec.vectors[1:]
    pivot = [None] + [tuple(x - drop for x in first[: n - i])
                      + tuple(x - drop - 1 for x in first[n - i + 1 :]) for i in range(1, n + 1)]
    struck = {v: [None] + [tuple(x + 1 for x in v[: n - i]) + v[n - i + 1 :]
                           for i in range(1, n + 1)]
              for v in set(companions)}
    return [pivot] + [struck[v] for v in companions]


def iter_subspecs(spec: DeltaSpec) -> Iterator[DeltaSpec]:
    """Every spec reachable through the pivot recursion, once per key.

    A child is keyed from its struck vectors when it is found, and built and
    checked through child_spec only when it is popped with its key unseen.
    """
    seen = set()
    stack = [(canonical_key(spec.vectors), spec, None)]
    while stack:
        key, parent, tup = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        cur = parent if tup is None else child_spec(parent, tup)
        yield cur
        if cur.n >= 2 and weight_ok(cur):
            strikes = _strikes(cur)
            for tup in pivot_tuples(cur, 1):
                child = canonical_key(tuple(ways[i] for ways, i in zip(strikes, tup)))
                if child not in seen:
                    stack.append((child, cur, tup))


def _sign(perm: Sequence[int]) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def det_direct_reference(t: DenseTensor, term_limit: int = DEFAULT_TERM_LIMIT) -> Value:
    """Literal p-fold permutation sum with the explicit 1/n! factor."""
    n, p = t.dim, t.order
    if p % 2:
        return 0
    if n == 0:
        return 1
    if factorial(n) ** p > term_limit:
        raise BudgetError(f"det_direct_reference refused: {n}!^{p} terms")
    signed = [(perm, _sign(perm)) for perm in permutations(range(1, n + 1))]
    total = Fraction(0)
    for sigmas in product(signed, repeat=p):
        sign = 1
        for _, s in sigmas:
            sign = -sign if s < 0 else sign
        term = Fraction(sign)
        for i in range(1, n + 1):
            term *= t.entries[tuple(sig[i - 1] for sig, _ in sigmas)]
        total += term
    total /= factorial(n)
    return int(total) if total.denominator == 1 else total


@dataclass(frozen=True)
class AdmissibleBounds:
    """Dominance interval endpoints for the expansion coefficients of (n, k)."""

    upper: IntVec
    lower: IntVec
    n: int
    k: int

    @classmethod
    def of(cls, n: int, k: int) -> "AdmissibleBounds":
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        upper = tuple(2 * k * (n - 1 - i) for i in range(n))
        lower = (k * (n - 1),) * n
        return cls(upper=upper, lower=lower, n=n, k=k)

    @property
    def target_weight(self) -> int:
        return self.k * self.n * (self.n - 1)


def dominates(a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff every prefix sum of a is >= the matching prefix sum of b.

    The shorter argument is padded with zeros. Comparing partitions of
    different weight is meaningless and raises ValueError.
    """
    pa = as_partition(a)
    pb = as_partition(b)
    n = max(len(pa), len(pb))
    pa = pa + (0,) * (n - len(pa))
    pb = pb + (0,) * (n - len(pb))
    if sum(pa) != sum(pb):
        raise ValueError(
            f"incomparable inputs: weights differ ({sum(pa)} vs {sum(pb)})"
        )
    sa = sb = 0
    for x, y in zip(pa, pb):
        sa += x
        sb += y
        if sa < sb:
            return False
    return True


def enumerate_admissible_reference(n: int, k: int) -> Iterator[IntVec]:
    """Admissible partitions of (n, k), largest first, one generator per part."""
    lo, up = _prefix_bounds(n, k)
    w = up[-1]
    out = [0] * n

    def rec(idx: int, s: int, prev: int) -> Iterator[IntVec]:
        if idx == n:
            yield tuple(out)
            return
        left = w - s
        hi = min(prev, up[idx] - s, left)
        # every later part is <= v, so v*(n-idx) must cover the leftover weight
        lb = max(lo[idx] - s, 0, -(-left // (n - idx)))
        for v in range(hi, lb - 1, -1):
            out[idx] = v
            yield from rec(idx + 1, s + v, v)

    yield from rec(0, 0, 2 * k * (n - 1))


def enumeration_checksum_reference(n: int, k: int, lams) -> str:
    h = hashlib.sha256()
    h.update(f"{n} {k}\n".encode())
    for lam in lams:
        h.update((" ".join(map(str, lam)) + "\n").encode())
    return h.hexdigest()


_DECIMAL = re.compile(r"-?[0-9]+")


def record_to_jsonl_reference(r: ResultRecord) -> str:
    payload = {"n": r.n, "k": r.k, "lambda": list(r.lam), "coeff": str(r.coeff)}
    return json.dumps(payload, separators=(",", ":"))


def record_to_csv_reference(r: ResultRecord) -> str:
    return f"{r.n},{r.k},{' '.join(map(str, r.lam))},{r.coeff}"


def _json_int(value, name: str) -> int:
    """A JSON integer, refusing the bools and floats that int() would take."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def record_from_jsonl_reference(line: str) -> ResultRecord:
    obj = json.loads(line)
    lam = obj["lambda"]
    if type(lam) is not list:
        raise ValueError(f"lambda must be a JSON list, got {lam!r}")
    coeff = obj["coeff"]
    if type(coeff) is not str or not _DECIMAL.fullmatch(coeff):
        raise ValueError(f"coeff must be a decimal integer string, got {coeff!r}")
    return ResultRecord(
        n=_json_int(obj["n"], "n"),
        k=_json_int(obj["k"], "k"),
        lam=tuple(_json_int(x, "lambda part") for x in lam),
        coeff=int(coeff),
    )


def _csv_int(text: str, name: str) -> int:
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{name} must be a decimal integer, got {text!r}")
    return int(text)


def record_from_csv_reference(line: str) -> ResultRecord:
    n, k, lam, coeff = line.rstrip("\n").split(",")
    return ResultRecord(
        n=_csv_int(n, "n"),
        k=_csv_int(k, "k"),
        lam=tuple(_csv_int(x, "lambda part") for x in lam.split(" ")),
        coeff=_csv_int(coeff, "coeff"),
    )
