"""Wire formats for coefficient records and shard manifests.

Coefficients travel as decimal strings so values beyond 64 bits survive any
consumer; both encodings are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .partitions import IntVec, as_partition, enumerate_admissible


# what record_to_jsonl writes for a coefficient and record_to_csv for every
# field, and all that is read back: int() would also take "1_0", " 7", "+7"
_DECIMAL = re.compile(r"-?[0-9]+")


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
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be positive, got n={self.n}, k={self.k}")
        if not 0 <= self.index < self.shards:
            raise ValueError(f"shard index {self.index} outside 0..{self.shards - 1}")


def record_to_jsonl(r: ResultRecord) -> str:
    payload = {"n": r.n, "k": r.k, "lambda": list(r.lam), "coeff": str(r.coeff)}
    return json.dumps(payload, separators=(",", ":"))


def _json_int(value, name: str) -> int:
    """A JSON integer, refusing the bools and floats that int() would take."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def record_from_jsonl(line: str) -> ResultRecord:
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


def record_to_csv(r: ResultRecord) -> str:
    return f"{r.n},{r.k},{' '.join(map(str, r.lam))},{r.coeff}"


def _csv_int(text: str, name: str) -> int:
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{name} must be a decimal integer, got {text!r}")
    return int(text)


def record_from_csv(line: str) -> ResultRecord:
    n, k, lam, coeff = line.rstrip("\n").split(",")
    return ResultRecord(
        n=_csv_int(n, "n"),
        k=_csv_int(k, "k"),
        lam=tuple(_csv_int(x, "lambda part") for x in lam.split(" ")),
        coeff=_csv_int(coeff, "coeff"),
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
        n=_json_int(m["n"], "n"),
        k=_json_int(m["k"], "k"),
        shards=_json_int(m["shards"], "shards"),
        index=_json_int(m["index"], "index"),
        count=_json_int(m["count"], "count"),
        checksum=str(m["checksum"]),
    )
