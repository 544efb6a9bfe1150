"""Wire formats for coefficient records and shard manifests.

Coefficients travel as decimal strings so values beyond 64 bits survive any
consumer; both encodings are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .partitions import IntVec, as_partition, enumerate_admissible


@dataclass(frozen=True)
class ResultRecord:
    n: int
    k: int
    lam: IntVec
    coeff: int

    def __post_init__(self):
        object.__setattr__(self, "lam", as_partition(self.lam, self.n))


@dataclass(frozen=True)
class ShardManifest:
    n: int
    k: int
    shards: int
    index: int
    count: int
    checksum: str

    def __post_init__(self):
        if not 0 <= self.index < self.shards:
            raise ValueError(f"shard index {self.index} outside 0..{self.shards - 1}")


def record_to_jsonl(r: ResultRecord) -> str:
    payload = {"n": r.n, "k": r.k, "lambda": list(r.lam), "coeff": str(r.coeff)}
    return json.dumps(payload, separators=(",", ":"))


def record_from_jsonl(line: str) -> ResultRecord:
    obj = json.loads(line)
    return ResultRecord(
        n=int(obj["n"]),
        k=int(obj["k"]),
        lam=tuple(int(x) for x in obj["lambda"]),
        coeff=int(obj["coeff"]),
    )


def record_to_csv(r: ResultRecord) -> str:
    return f"{r.n},{r.k},{' '.join(map(str, r.lam))},{r.coeff}"


def record_from_csv(line: str) -> ResultRecord:
    n, k, lam, coeff = line.rstrip("\n").split(",")
    return ResultRecord(
        n=int(n),
        k=int(k),
        lam=tuple(int(x) for x in lam.split()),
        coeff=int(coeff),
    )


def write_records(records: Iterable[ResultRecord], fmt: str) -> Iterator[str]:
    encode = {"jsonl": record_to_jsonl, "csv": record_to_csv}[fmt]
    for r in records:
        yield encode(r) + "\n"


def read_records(lines: Iterable[str], fmt: str) -> Iterator[ResultRecord]:
    decode = {"jsonl": record_from_jsonl, "csv": record_from_csv}[fmt]
    for line in lines:
        line = line.strip()
        if line:
            yield decode(line)


def enumeration_checksum(n: int, k: int, lams: Iterable[IntVec] | None = None) -> str:
    """Digest of the canonical admissible enumeration for (n, k), or of lams
    in its place when they are given."""
    h = hashlib.sha256()
    h.update(f"{n} {k}\n".encode())
    for lam in enumerate_admissible(n, k) if lams is None else lams:
        h.update((" ".join(map(str, lam)) + "\n").encode())
    return h.hexdigest()


def manifest_to_jsonl(m: ShardManifest) -> str:
    payload = {
        "manifest": {
            "n": m.n,
            "k": m.k,
            "shards": m.shards,
            "index": m.index,
            "count": m.count,
            "checksum": m.checksum,
        }
    }
    return json.dumps(payload, separators=(",", ":"))


def manifest_from_jsonl(line: str) -> ShardManifest:
    obj = json.loads(line)
    if "manifest" not in obj:
        raise ValueError("shard file does not start with a manifest line")
    m = obj["manifest"]
    return ShardManifest(
        n=int(m["n"]),
        k=int(m["k"]),
        shards=int(m["shards"]),
        index=int(m["index"]),
        count=int(m["count"]),
        checksum=str(m["checksum"]),
    )
