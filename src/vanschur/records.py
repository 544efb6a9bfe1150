"""Wire formats for coefficient records and shard manifests, and the
`SchurExpansion` table that the engine and the oracle both return.

Coefficients travel as decimal strings so values beyond 64 bits survive any
consumer; both encodings are byte-deterministic for fixed inputs.

A record line is formatted directly, from a template made once per number
of parts: the JSONL one is laid out by json.dumps, so a line is the bytes
json.dumps gives for a record of ints, without calling it per record. A JSONL
line is read by one JSON decoder reused across lines. The decoders check the
fields they parse, n, k and the coefficient, and leave the partition to the
checking constructor ResultRecord, whose as_partition refuses any part that
is not an int. The records of `expand` and `shard` hold partitions the
admissible enumeration made, and are built by enumerated_record with no check.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from typing import Iterable, Iterator, Sequence

from .partitions import Frozen, IntVec, as_partition, enumerate_admissible


# what record_to_jsonl writes for a coefficient and record_to_csv for every
# field, and all that is read back: int() would also take "1_0", " 7", "+7"
_DECIMAL = re.compile(r"-?[0-9]+")

_JSON = json.JSONDecoder()
# the whitespace json.loads skips around a value
_JSON_SPACE = " \t\n\r"


class ResultRecord(Frozen):
    """One coefficient of a table: lam, padded to n parts, and its value."""

    __slots__ = ("n", "k", "lam", "coeff")

    def __init__(self, n: int, k: int, lam: Iterable[int], coeff: int):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "k", k)
        init(self, "lam", as_partition(lam, n))
        init(self, "coeff", coeff)


class SchurExpansion(Frozen):
    """All coefficients of one (n, k), keyed by partition in reverse-lex order."""

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms: dict[IntVec, int]):
        init = object.__setattr__
        init(self, "n", n)
        init(self, "k", k)
        init(self, "terms", terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, lam: Sequence[int]) -> int:
        return self.terms.get(as_partition(lam, self.n), 0)

    def vanishing(self) -> list[IntVec]:
        return [lam for lam, g in self.terms.items() if g == 0]


# how `shard` cuts a table: shard j of S holds the admissible partitions whose
# partitions.pair_class for S classes is j, in enumeration order
LAYOUT = "pair-class"


class ShardManifest(Frozen):
    """First line of a shard file: which slice of which table it holds."""

    __slots__ = ("n", "k", "shards", "index", "count", "checksum", "layout")

    def __init__(self, n: int, k: int, shards: int, index: int, count: int, checksum: str,
                 layout: str = LAYOUT):
        if n < 1 or k < 1:
            raise ValueError(f"n and k must be positive, got n={n}, k={k}")
        if not 0 <= index < shards:
            raise ValueError(f"shard index {index} outside 0..{shards - 1}")
        if layout != LAYOUT:
            raise ValueError(f"unknown shard layout {layout!r}, this version writes {LAYOUT!r}")
        init = object.__setattr__
        init(self, "n", n)
        init(self, "k", k)
        init(self, "shards", shards)
        init(self, "index", index)
        init(self, "count", count)
        init(self, "checksum", checksum)
        init(self, "layout", layout)


def enumerated_record(n: int, k: int, lam: IntVec, coeff: int) -> ResultRecord:
    """ResultRecord(n=n, k=k, lam=lam, coeff=coeff) for lam a partition
    padded to n parts already, such as the admissible enumeration makes:
    stored as it is, with no second check."""
    record = object.__new__(ResultRecord)
    init = object.__setattr__
    init(record, "n", n)
    init(record, "k", k)
    init(record, "lam", lam)
    init(record, "coeff", coeff)
    return record


# one template per format and part count, and a table has one part count
@functools.cache
def _template(fmt: str, parts: int) -> str:
    """%-template of one record line without its newline, for a record with
    `parts` lambda parts, taking (n, k, *lam, coeff). The JSONL one is what
    json.dumps writes for a record of zeros with an empty coefficient, each
    value turned into a %s; no key holds a 0."""
    if fmt == "jsonl":
        zeros = {"n": 0, "k": 0, "lambda": [0] * parts, "coeff": ""}
        return json.dumps(zeros, separators=(",", ":")).replace("0", "%s").replace('""', '"%s"')
    if fmt == "csv":
        return "%s,%s," + " ".join(["%s"] * parts) + ",%s"
    raise KeyError(fmt)


def _encode(r: ResultRecord, fmt: str) -> str:
    return _template(fmt, len(r.lam)) % (r.n, r.k, *r.lam, r.coeff)


def record_to_jsonl(r: ResultRecord) -> str:
    return _encode(r, "jsonl")


def _json_int(value, name: str) -> int:
    """A JSON integer, refusing the bools and floats that int() would take."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_value(line: str):
    """json.loads(line), refusing a value nested too deeply for the parser
    with a ValueError instead of a RecursionError."""
    text = line.strip(_JSON_SPACE)
    try:
        value, end = _JSON.raw_decode(text)
    except RecursionError:
        raise ValueError("JSON value nested too deeply") from None
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def record_fields_from_jsonl(line: str) -> tuple[int, int, list, int]:
    """The n, k, lambda and coefficient of one JSONL record, refusing an n or
    k that is not a JSON integer and any coefficient that is not a decimal
    string. lambda is returned as the JSON list it is, its parts unchecked
    until a ResultRecord is built from it; no record is built here, so a
    caller can refuse an n before lambda is padded to n parts."""
    obj = _json_value(line)
    lam = obj["lambda"]
    if type(lam) is not list:
        raise ValueError(f"lambda must be a JSON list, got {lam!r}")
    coeff = obj["coeff"]
    if type(coeff) is not str or not _DECIMAL.fullmatch(coeff):
        raise ValueError(f"coeff must be a decimal integer string, got {coeff!r}")
    n = _json_int(obj["n"], "n")
    k = _json_int(obj["k"], "k")
    return n, k, lam, int(coeff)


def record_from_jsonl(line: str) -> ResultRecord:
    return ResultRecord(*record_fields_from_jsonl(line))


def record_to_csv(r: ResultRecord) -> str:
    return _encode(r, "csv")


def record_from_csv(line: str) -> ResultRecord:
    n, k, lam, coeff = line.rstrip("\n").split(",")
    parts = lam.split(" ")
    if not all(map(_DECIMAL.fullmatch, (n, k, coeff, *parts))):
        raise ValueError(f"CSV fields must be decimal integers, got {line!r}")
    return ResultRecord(int(n), int(k), map(int, parts), int(coeff))


def write_records(records: Iterable[ResultRecord], fmt: str) -> Iterator[str]:
    _template(fmt, 0)  # an unknown format raises KeyError, records or not
    for r in records:
        yield _encode(r, fmt) + "\n"


def read_records(lines: Iterable[str], fmt: str) -> Iterator[ResultRecord]:
    decode = {"jsonl": record_from_jsonl, "csv": record_from_csv}[fmt]
    for line in lines:
        line = line.strip()
        if line:
            yield decode(line)


def enumeration_checksum(n: int, k: int, lams: Iterable[IntVec] | None = None) -> str:
    """Digest of the canonical admissible enumeration for (n, k), or of lams,
    tuples of n ints, in its place when they are given. The text hashed is
    "n k" and then each partition's parts joined by spaces, one line each,
    fed to the digest line by line so that no copy of the table is held."""
    line = " ".join(["%s"] * n) + "\n"
    lams = enumerate_admissible(n, k) if lams is None else lams
    digest = _sha256()(f"{n} {k}\n".encode())
    for lam in lams:
        digest.update((line % lam).encode())
    return digest.hexdigest()


def _sha256():
    """The interpreter's built-in SHA-256: hashlib would map OpenSSL into the
    process (3.5 MB of RSS and 5 ms of import) for the one digest that shard
    and merge take. Imported when called, since nothing else hashes."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256
    return sha256


def manifest_to_jsonl(m: ShardManifest) -> str:
    payload = {
        "manifest": {
            "n": m.n,
            "k": m.k,
            "shards": m.shards,
            "index": m.index,
            "count": m.count,
            "checksum": m.checksum,
            "layout": m.layout,
        }
    }
    return json.dumps(payload, separators=(",", ":"))


def manifest_from_jsonl(line: str) -> ShardManifest:
    obj = _json_value(line)
    if "manifest" not in obj:
        raise ValueError("shard file does not start with a manifest line")
    m = obj["manifest"]
    if "layout" not in m:
        raise ValueError("manifest has no layout; shards cut at positions j mod S "
                         "cannot be merged, run shard again")
    return ShardManifest(
        n=_json_int(m["n"], "n"),
        k=_json_int(m["k"], "k"),
        shards=_json_int(m["shards"], "shards"),
        index=_json_int(m["index"], "index"),
        count=_json_int(m["count"], "count"),
        checksum=str(m["checksum"]),
        layout=m["layout"],
    )
