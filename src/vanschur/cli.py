"""Command-line surface: single coefficients, expansions, counts, oracle
verification, and deterministic file-based sharding.

Exit codes: 0 success, 1 usage or I/O failure, 2 verification/merge failure,
141 (128 + SIGPIPE) when the reader of the output closes it early.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Sequence

from .coefficients import expand, g_coefficient, g_coefficients
from .hyperdet import BudgetError
from .partitions import count_admissible, enumerate_admissible, is_admissible
from .records import (
    ResultRecord,
    ShardManifest,
    enumeration_checksum,
    manifest_from_jsonl,
    manifest_to_jsonl,
    record_from_jsonl,
    record_to_jsonl,
    write_records,
)

USAGE_EXIT = 1
VERIFY_EXIT = 2
PIPE_EXIT = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or (
        parts and parts[-1] < 0
    ):
        raise ValueError(f"{text!r} is not a decreasing nonnegative partition")
    return parts


@contextmanager
def _output(path: str | None):
    """Text stream for --out: stdout for None or "-"; otherwise a temporary
    file beside the target, opened on entry, moved onto the target when the
    block completes and removed when it raises. A symlinked target is
    resolved first, so the file it points to is the one replaced, and an
    existing target's permission bits carry over."""
    if path is None or path == "-":
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # a pipe or device has no partial file to protect; renaming onto it
        # would replace the node itself
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            yield out
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        out = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot open output {path}: {exc.strerror}") from exc
    try:
        with out:
            if target.exists():
                os.chmod(out.fileno(), target.stat().st_mode & 0o7777)
            yield out
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_coeff(args) -> int:
    try:
        lam = _parse_lambda(args.lam)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if len(lam) > args.n:
        print(f"error: more than {args.n} parts in {args.lam!r}", file=sys.stderr)
        return USAGE_EXIT
    if not is_admissible(lam, args.n, args.k):
        print(
            f"warning: {list(lam)} is not admissible for n={args.n}, k={args.k}; "
            "coefficient is 0",
            file=sys.stderr,
        )
        coeff = 0
    else:
        coeff = g_coefficient(lam, args.n, args.k)
    record = ResultRecord(n=args.n, k=args.k, lam=lam, coeff=coeff)
    print(record_to_jsonl(record))
    return 0


def cmd_expand(args) -> int:
    with _output(args.out) as out:
        exp = expand(args.n, args.k, workers=args.jobs)
        records = (ResultRecord(n=args.n, k=args.k, lam=lam, coeff=g) for lam, g in exp)
        out.writelines(write_records(records, args.format))
    return 0


def cmd_admissible(args) -> int:
    if args.count_only:
        print(count_admissible(args.n, args.k))
        return 0
    for lam in enumerate_admissible(args.n, args.k):
        print(" ".join(map(str, lam)))
    return 0


def cmd_verify(args) -> int:
    from .oracle import schur_expansion_bruteforce

    # the oracle refuses over-budget cells up front, before the engine runs
    reference = schur_expansion_bruteforce(args.n, args.k)
    engine = expand(args.n, args.k, workers=args.jobs)
    if list(engine.terms) != list(reference.terms):
        print("mismatch: partition enumerations differ", file=sys.stderr)
        return VERIFY_EXIT
    for lam, g in engine:
        expected = reference.terms[lam]
        if g != expected:
            print(
                f"mismatch at lambda={list(lam)}: engine {g}, oracle {expected}",
                file=sys.stderr,
            )
            return VERIFY_EXIT
    print(f"verified n={args.n} k={args.k}: {len(engine)} coefficients agree")
    return 0


def cmd_shard(args) -> int:
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return USAGE_EXIT
    if not 0 <= args.index < args.shards:
        print(
            f"error: index {args.index} outside 0..{args.shards - 1}", file=sys.stderr
        )
        return USAGE_EXIT
    lams = list(enumerate_admissible(args.n, args.k))
    mine = lams[args.index :: args.shards]
    manifest = ShardManifest(
        n=args.n,
        k=args.k,
        shards=args.shards,
        index=args.index,
        count=len(mine),
        checksum=enumeration_checksum(args.n, args.k, lams),
    )
    with _output(args.out) as out:
        values = g_coefficients(mine, args.n, args.k)
        out.write(manifest_to_jsonl(manifest) + "\n")
        records = (
            ResultRecord(n=args.n, k=args.k, lam=lam, coeff=coeff)
            for lam, coeff in zip(mine, values)
        )
        out.writelines(write_records(records, "jsonl"))
    return 0


def cmd_merge(args) -> int:
    shard_records: dict[int, list[ResultRecord]] = {}
    manifests: list[ShardManifest] = []
    for path in args.files:
        try:
            lines = Path(path).read_bytes().splitlines()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return USAGE_EXIT
        if not lines:
            print(f"merge failure: {path} is empty", file=sys.stderr)
            return VERIFY_EXIT
        decoded = []
        for lineno, line in enumerate(lines, start=1):
            if lineno > 1 and not line.strip():
                continue
            decode = manifest_from_jsonl if lineno == 1 else record_from_jsonl
            try:
                decoded.append(decode(line.decode("utf-8")))
            except (ValueError, KeyError, TypeError) as exc:
                print(
                    f"merge failure: {path}:{lineno}: {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                return VERIFY_EXIT
        manifest, records = decoded[0], decoded[1:]
        if manifest.index in shard_records:
            print(
                f"merge failure: duplicate shard index {manifest.index}",
                file=sys.stderr,
            )
            return VERIFY_EXIT
        # checks that need no enumeration come first: records that contradict
        # their manifest are refused before its claimed (n, k) is enumerated
        if len(records) != manifest.count:
            print(
                f"merge failure: shard {manifest.index} ({path}) holds "
                f"{len(records)} records, its manifest claims {manifest.count}",
                file=sys.stderr,
            )
            return VERIFY_EXIT
        for pos, rec in enumerate(records):
            if (rec.n, rec.k) != (manifest.n, manifest.k):
                print(
                    f"merge failure: shard {manifest.index} ({path}) record {pos} "
                    f"is for (n, k) = ({rec.n}, {rec.k}), its manifest claims "
                    f"({manifest.n}, {manifest.k})",
                    file=sys.stderr,
                )
                return VERIFY_EXIT
        manifests.append(manifest)
        shard_records[manifest.index] = records

    ref = manifests[0]
    for m in manifests[1:]:
        if (m.n, m.k, m.shards, m.checksum) != (ref.n, ref.k, ref.shards, ref.checksum):
            print("merge failure: manifests disagree on (n, k, shards, checksum)",
                  file=sys.stderr)
            return VERIFY_EXIT

    # shard j of S holds len(range(j, T, S)) of the T records, at most
    # count * S + j, and no shard holds more than one record beyond another;
    # so unless more than half the shards are missing, honest shards have
    # T <= cap, a bound that follows the files given, not the (n, k) or the
    # shard count a manifest claims
    held = sum(m.count for m in manifests)
    cap = min(min(m.count * m.shards + m.index for m in manifests),
              2 * held + len(manifests))
    lams = list(islice(enumerate_admissible(ref.n, ref.k), cap + 1))
    # indices are distinct and below ref.shards, so naming the missing ones
    # costs no more than the files given
    missing = ref.shards - len(manifests)
    if missing:
        named = list(islice((j for j in range(ref.shards) if j not in shard_records), 5))
        more = f" and {missing - len(named)} more" if missing > len(named) else ""
        if len(lams) > cap:
            count = f"at least {len(lams) - held} missing of more than {cap}"
        else:
            present = sum(len(range(j, len(lams), ref.shards)) for j in shard_records)
            count = f"{len(lams) - present} missing of {len(lams)}"
        print(f"merge failure: missing shard index(es) {named}{more}: {count}",
              file=sys.stderr)
        return VERIFY_EXIT
    if len(lams) > cap:
        print(
            f"merge failure: (n, k) = ({ref.n}, {ref.k}) has more than {cap} "
            f"admissible partitions, more than the shards' counts allow",
            file=sys.stderr,
        )
        return VERIFY_EXIT
    if ref.checksum != enumeration_checksum(ref.n, ref.k, lams):
        print("merge failure: checksum does not match the admissible enumeration",
              file=sys.stderr)
        return VERIFY_EXIT

    merged: list[ResultRecord | None] = [None] * len(lams)
    for m in manifests:
        expected = lams[m.index :: m.shards]
        got = shard_records[m.index]
        if len(got) != len(expected):
            print(
                f"merge failure: shard {m.index} holds {len(got)} records, "
                f"expected {len(expected)}",
                file=sys.stderr,
            )
            return VERIFY_EXIT
        for pos, (lam, rec) in enumerate(zip(expected, got)):
            if rec.lam != lam:
                print(
                    f"merge failure: shard {m.index} record {pos} does not match "
                    f"the canonical enumeration",
                    file=sys.stderr,
                )
                return VERIFY_EXIT
            merged[m.index + pos * m.shards] = rec

    with _output(args.out) as out:
        out.writelines(write_records(merged, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vanschur", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("coeff", help="one coefficient without computing the others")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated decreasing parts, e.g. 4,1,1")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("expand", help="all admissible coefficients of (n, k)")
    common(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("admissible", help="list or count admissible partitions")
    common(p)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("verify", help="cross-check the engine against brute force")
    common(p)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("shard", help="compute one deterministic slice of (n, k)")
    common(p)
    p.add_argument("--shards", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser("merge", help="validate shard files and emit canonical output")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_merge)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        code = args.fn(args)
        # a reader that leaves early shows here at the latest, not in the
        # interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what stdout still buffers can never be delivered; send it to
        # devnull so the exit flush does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return PIPE_EXIT
    except (ValueError, OSError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def entrypoint() -> None:
    sys.exit(main())
