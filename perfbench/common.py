"""Shared pieces of the benchmark: paths, the vanschur CLI, output checks, tracing.

Everything here runs from a checkout of the repository: the library is
imported from ``<checkout>/src`` and every file the benchmark writes lives in
a scratch directory inside the checkout that is removed afterwards.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Full tables whose output bytes expected.json pins.
TABLE_CELLS = ((8, 1), (5, 3))
DIST_CELL = (8, 1)
COEFF_CELLS = ((9, 1), (5, 4), (7, 2))
# Partitions drawn per coeff cell into the recorded pool; run.py's COEFF_CAP
# and COEFF_TAIL and the p95's ten samples beyond it assume this size.
POOL_PER_CELL = 160
SMOKE_CELLS = ((4, 1), (3, 2))
EXPECTED_TABLE_CELLS = TABLE_CELLS + SMOKE_CELLS

CACHE_CAPACITY_ENV = "VANSCHUR_CACHE_CAPACITY"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def require_source() -> None:
    """Put the checkout's library first on sys.path, or refuse."""
    if not (SRC / "vanschur" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC}/vanschur")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def cell_id(n: int, k: int) -> str:
    return f"{n},{k}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


class Scratch:
    """Temporary directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        self.path = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def vanschur_cmd(*args) -> list[str]:
    return [sys.executable, "-m", "vanschur", *map(str, args)]


class Child:
    """One child process with stdin, stdout and stderr in files of ``cwd``.

    ``wait`` reaps it with wait4, so its CPU time and peak RSS include the
    descendants it reaped itself (the process pool of ``expand --jobs``).
    """

    _serial = 0

    def __init__(self, cmd: list[str], cwd: Path, stdin_text: str | None = None):
        Child._serial += 1
        stem = cwd / f".child{Child._serial}"
        self._out = open(f"{stem}.out", "w+b")
        self._err = open(f"{stem}.err", "w+b")
        stdin = subprocess.DEVNULL
        if stdin_text is not None:
            Path(f"{stem}.in").write_text(stdin_text)
            stdin = open(f"{stem}.in", "rb")
        self.t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdin=stdin,
                                         stdout=self._out, stderr=self._err)
        finally:
            if stdin is not subprocess.DEVNULL:
                stdin.close()

    def wait(self) -> "Child":
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.wall = time.perf_counter() - self.t0
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        for f in (self._out, self._err):
            f.seek(0)
        self.stdout, self.stderr = self._out.read(), self._err.read()
        self._out.close()
        self._err.close()
        return self

    def describe_failure(self) -> str:
        return f"{' '.join(self.proc.args[1:])} exited {self.returncode}: {self.stderr.decode()[-300:]}"


def run(cmd: list[str], cwd: Path, stdin_text: str | None = None) -> Child:
    return Child(cmd, cwd, stdin_text).wait()


def table_counts(data: bytes, n: int, k: int) -> tuple[int, int]:
    """(records, zero coefficients) of JSONL table bytes; ValueError if malformed."""
    total = zeros = 0
    for line in data.decode().splitlines():
        obj = json.loads(line)
        if obj["n"] != n or obj["k"] != k:
            raise ValueError(f"record for ({obj['n']},{obj['k']}) in table ({n},{k})")
        total += 1
        zeros += int(obj["coeff"]) == 0
    return total, zeros


def table_ok(data: bytes, n: int, k: int, expect: dict) -> str | None:
    """None when table bytes match the recorded digest and counts, else why not."""
    if sha256(data) != expect["sha256"]:
        return f"({n},{k}) output digest differs from the recorded one"
    try:
        counts = table_counts(data, n, k)
    except (ValueError, KeyError) as exc:
        return f"({n},{k}) output does not parse: {exc}"
    if counts != (expect["admissible"], expect["vanishing"]):
        return f"({n},{k}) counts {counts} != recorded {(expect['admissible'], expect['vanishing'])}"
    return None


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Tracer:
    """In-memory spans and counts recorded around calls into the library.

    A span is (id, parent id, name, start, end); spans of one pass share the
    tracer. Self time is a span's duration minus the time its children cover.
    """

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def summary(self) -> dict:
        """Per span name: number of spans, total seconds and self seconds."""
        child_time: dict[int, float] = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict] = {}
        for sid, _, name, t0, t1 in self.spans:
            row = out.setdefault(name, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        return out
