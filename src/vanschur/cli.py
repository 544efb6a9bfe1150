"""Command-line surface: single coefficients, expansions, counts, oracle
verification, deterministic file-based sharding, and the study grid of
admissible and vanishing counts.

Exit codes: 0 success, 1 usage or I/O failure, 2 verification/merge failure,
3 out of memory, 141 (128 + SIGPIPE) when the reader of the output closes it
early. A command raises where it finds a fault, and `main` alone reports it,
in one stderr line, and picks the code: ValueError or OSError 1, a
verification or merge failure 2, MemoryError 3, a closed pipe 141. A bad flag
prints the usage and a line that names the flag, and exits 1. Every command
but merge and grid refuses n or k outside 1..MAX_N and 1..MAX_K before it pads
or enumerates anything.

`expand` and `shard` write each record as soon as its value is known. To
stdout, a failure therefore exits nonzero after a prefix of the records;
--out replaces its target only when the whole table is written.

Each command imports what it uses when it runs: `admissible`, `merge` and
`grid --count-only` load neither the engine nor the oracle, and only `verify`
loads the oracle.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Sequence

from .partitions import (_within_bounds, as_partition, count_admissible, deal,
                         enumerate_admissible, gather, pair_class)
from .records import (
    _DECIMAL,
    ResultRecord,
    ShardManifest,
    enumerated_record,
    enumeration_checksum,
    manifest_from_jsonl,
    manifest_to_jsonl,
    record_fields_from_jsonl,
    record_to_jsonl,
    write_records,
)

USAGE_EXIT = 1
VERIFY_EXIT = 2
MEMORY_EXIT = 3
PIPE_EXIT = 141

# the largest cell taken: room beyond the (11,1) table and the (13,1)
# rectangle, while n = 40, or k = 10^6 at n = 3, is refused before it is
# padded to n parts or enumerated
MAX_N = 16
MAX_K = 16

# the n of each k in `grid`; --nmax-k1 sets the last n of the k=1 column
DEFAULT_GRID = {1: range(2, 9), 2: range(2, 7), 3: range(2, 6), 4: range(2, 6), 5: range(2, 5)}


class _Failure(Exception):
    """A verification or merge failure; its message is the whole stderr
    line, and `main` exits VERIFY_EXIT with it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _check_cell(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be positive, got n={n}, k={k}")
    if n > MAX_N or k > MAX_K:
        raise ValueError(f"n={n}, k={k} is beyond the largest cell taken, "
                         f"n <= {MAX_N} and k <= {MAX_K}")


def _decimal(text: str) -> int:
    """An integer as records write one, an optional minus sign and ASCII
    digits: int() would also take "+4", " 4", "1_0" and other scripts'
    digits. Every integer on the command line is read with it."""
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _at_least_one(text: str) -> int:
    value = _decimal(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nmax_k1(text: str) -> int:
    value = _decimal(text)
    if not 2 <= value <= 11:
        raise argparse.ArgumentTypeError(f"must be between 2 and 11, got {value}")
    return value


def _parse_lambda(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_decimal, text.split(",")))
    except argparse.ArgumentTypeError:
        raise ValueError(f"cannot parse partition {text!r}")


def _open_output(file, mode: str, path: str):
    try:
        return open(file, mode, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot open output {path}: {exc.strerror}") from exc


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
        with _open_output(path, "w", path) as out:
            yield out
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    out = _open_output(tmp, "x", path)
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
    n, k = args.n, args.k
    lam = as_partition(_parse_lambda(args.lam), n)
    if not _within_bounds(lam, n, k):
        print(f"warning: {list(lam)} is not admissible for n={n}, k={k}; coefficient is 0",
              file=sys.stderr)
        coeff = 0
    else:
        from .coefficients import g_coefficient

        coeff = g_coefficient(lam, n, k)
    print(record_to_jsonl(enumerated_record(n, k, lam, coeff)))
    return 0


def cmd_expand(args) -> int:
    from .coefficients import iter_terms

    n, k = args.n, args.k
    with _output(args.out) as out:
        terms = iter_terms(enumerate_admissible(n, k), n, k, args.jobs)
        records = (enumerated_record(n, k, lam, g) for lam, g in terms)
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
    from .coefficients import expand
    from .oracle import BudgetError, schur_expansion_bruteforce

    # the oracle refuses over-budget cells up front, before the engine runs
    try:
        reference = schur_expansion_bruteforce(args.n, args.k)
    except BudgetError as exc:
        raise ValueError(str(exc)) from exc
    engine = expand(args.n, args.k)
    for lam, g in engine:
        expected = reference.terms[lam]
        if g != expected:
            raise _Failure(f"mismatch at lambda={list(lam)}: engine {g}, oracle {expected}")
    print(f"verified n={args.n} k={args.k}: {len(engine)} coefficients agree")
    return 0


def cmd_shard(args) -> int:
    if not 0 <= args.index < args.shards:
        raise ValueError(f"index {args.index} outside 0..{args.shards - 1}")
    from .coefficients import iter_terms

    n, k, shards, index = args.n, args.k, args.shards, args.index
    mine = []

    def walk():
        # the one pass that is hashed keeps the shard's own partitions; both
        # members of a complement pair share a class, so the shard folds
        # every pair it holds
        for lam in enumerate_admissible(n, k):
            if shards == 1 or pair_class(lam, n, k, shards) == index:
                mine.append(lam)
            yield lam

    checksum = enumeration_checksum(n, k, walk())
    manifest = ShardManifest(n=n, k=k, shards=shards, index=index, count=len(mine),
                             checksum=checksum)
    with _output(args.out) as out:
        out.write(manifest_to_jsonl(manifest) + "\n")
        records = (enumerated_record(n, k, lam, g) for lam, g in iter_terms(mine, n, k))
        out.writelines(write_records(records, "jsonl"))
    return 0


def cmd_merge(args) -> int:
    shard_records: dict[int, list[ResultRecord]] = {}
    manifests: list[ShardManifest] = []
    for path in args.files:
        try:
            lines = Path(path).read_bytes().splitlines()
        except OSError as exc:
            raise OSError(f"cannot read {path}: {exc}") from exc
        if not lines:
            raise _Failure(f"merge failure: {path} is empty")
        records: list[ResultRecord] = []
        for lineno, line in enumerate(lines, start=1):
            if lineno > 1 and not line.strip():
                continue
            try:
                if lineno == 1:
                    manifest = manifest_from_jsonl(line.decode("utf-8"))
                    continue
                n, k, lam, coeff = record_fields_from_jsonl(line.decode("utf-8"))
                # (n, k) and the part count are checked before the record is
                # built: `shard` writes all n parts, and padding a short lam
                # to an absurd n would take any amount of memory
                if (n, k) != (manifest.n, manifest.k):
                    problem = (f"record {len(records)} is for (n, k) = ({n}, {k}), "
                               f"its manifest claims ({manifest.n}, {manifest.k})")
                elif len(lam) != n:
                    problem = (f"record {len(records)} has {len(lam)} parts, "
                               f"its manifest's n is {n}")
                else:
                    records.append(ResultRecord(n, k, lam, coeff))
                    continue
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            raise _Failure(f"merge failure: {path}:{lineno}: {problem}")
        if manifest.index in shard_records:
            raise _Failure(f"merge failure: duplicate shard index {manifest.index}")
        # checks that need no enumeration come first: records that contradict
        # their manifest are refused before its claimed (n, k) is enumerated
        if len(records) != manifest.count:
            raise _Failure(f"merge failure: shard {manifest.index} ({path}) holds "
                           f"{len(records)} records, its manifest claims {manifest.count}")
        manifests.append(manifest)
        shard_records[manifest.index] = records

    ref = manifests[0]
    for m in manifests[1:]:
        if (m.n, m.k, m.shards, m.checksum) != (ref.n, ref.k, ref.shards, ref.checksum):
            raise _Failure("merge failure: manifests disagree on (n, k, shards, checksum)")

    # indices are distinct and below ref.shards, so naming the missing ones
    # costs no more than the files given
    missing = ref.shards - len(manifests)
    if missing:
        named = list(islice((j for j in range(ref.shards) if j not in shard_records), 5))
        more = f" and {missing - len(named)} more" if missing > len(named) else ""
        raise _Failure(f"merge failure: missing shard index(es) {named}{more}")
    # with every shard present the table is exactly the records held, so the
    # claimed (n, k) is enumerated no further than one partition beyond them
    held = sum(m.count for m in manifests)
    if not held:
        raise _Failure("merge failure: the shards hold no records, and no admissible "
                       "table is empty")
    lams = list(islice(enumerate_admissible(ref.n, ref.k), held + 1))
    if len(lams) != held:
        size = f"more than {held}" if len(lams) > held else len(lams)
        raise _Failure(f"merge failure: (n, k) = ({ref.n}, {ref.k}) has {size} admissible "
                       f"partitions, the shards hold {held} records")
    if ref.checksum != enumeration_checksum(ref.n, ref.k, lams):
        raise _Failure("merge failure: checksum does not match the admissible enumeration")

    # each position takes its record from the shard of its class; a shard
    # that runs short leaves None
    parts = [shard_records[j] for j in range(ref.shards)]
    merged = gather(lams, ref.n, ref.k, ref.shards, parts)
    if [r and r.lam for r in merged] != lams:
        # some shard then differs from its class of the enumeration
        own = deal(lams, ref.n, ref.k, ref.shards)
        j = next(j for j, part in enumerate(parts) if [r.lam for r in part] != own[j])
        raise _Failure(f"merge failure: shard {j} does not match the canonical enumeration")

    with _output(args.out) as out:
        out.writelines(write_records(merged, args.format))
    return 0


def cmd_grid(args) -> int:
    import time

    if not args.count_only:
        from .coefficients import count_vanishing
    grid = {**DEFAULT_GRID, 1: range(2, args.nmax_k1 + 1)}
    print(f"{'k':>2} {'n':>3} {'admissible':>12} {'vanishing':>10} {'seconds':>9}")
    for k, ns in grid.items():
        for n in ns:
            t0 = time.time()
            if args.count_only:
                adm, nil = count_admissible(n, k), "-"
            else:
                adm, nil = count_vanishing(n, k, workers=args.jobs)
            print(f"{k:>2} {n:>3} {adm:>12} {nil:>10} {time.time() - t0:>9.2f}", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vanschur", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_decimal, required=True)
        p.add_argument("--k", type=_decimal, required=True)

    p = sub.add_parser("coeff", help="one coefficient without computing the others")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated decreasing parts, e.g. 4,1,1")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("expand", help="all admissible coefficients of (n, k)")
    common(p)
    p.add_argument("--jobs", type=_at_least_one, default=1)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("admissible", help="list or count admissible partitions")
    common(p)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("verify", help="cross-check the engine against brute force")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("shard", help="compute one deterministic slice of (n, k)")
    common(p)
    p.add_argument("--shards", type=_at_least_one, required=True)
    p.add_argument("--index", type=_decimal, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser("merge", help="validate shard files and emit canonical output")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("grid", help="admissible and vanishing counts of the study grid")
    p.add_argument("--nmax-k1", type=_nmax_k1, default=8,
                   help="largest n of the k=1 column, 2 to 11 (default 8)")
    p.add_argument("--jobs", type=_at_least_one, default=1)
    p.add_argument("--count-only", action="store_true", help="admissible counts alone")
    p.set_defaults(fn=cmd_grid)

    return parser


def _closed_pipe_exit() -> int:
    """PIPE_EXIT, once stdout is pointed at devnull: after its reader closed
    it, what stdout still buffers can never be delivered, and the exit flush
    must not fail a second time."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return PIPE_EXIT


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        if args.command not in ("merge", "grid"):
            _check_cell(args.n, args.k)
        code = args.fn(args)
        # a reader that leaves early shows here at the latest, not in the
        # interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return _closed_pipe_exit()
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return MEMORY_EXIT
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return VERIFY_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def entrypoint() -> None:
    sys.exit(main())
