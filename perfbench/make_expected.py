#!/usr/bin/env python3
"""Regenerate perfbench/expected.json: the reference outputs the benchmark checks.

Run only at a commit whose outputs are trusted; the file pins them for every
later commit.  It records

* for each table cell, the sha256 of the JSONL bytes `vanschur expand` writes
  and the (admissible, vanishing) counts parsed from them;
* the pool of the `coeff` workload: partitions drawn uniformly from each coeff
  cell with a fixed seed, with their values and the memo misses of a cold
  evaluation (misses order the pool by cost, see run.py).

Usage: python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.require_source()

from vanschur.coefficients import g_coefficient  # noqa: E402
from vanschur.delta_engine import MemoCache  # noqa: E402
from vanschur.partitions import enumerate_admissible  # noqa: E402


def run_expand(scratch: Path, n: int, k: int) -> bytes:
    """Bytes of serial `vanschur expand`; raises BenchError when the command fails."""
    path = scratch / f"expand_{n}_{k}.jsonl"
    child = common.run(common.vanschur_cmd("expand", "--n", n, "--k", k, "--out", path), scratch)
    if child.returncode != 0:
        raise common.BenchError(child.describe_failure())
    return path.read_bytes()


def main() -> int:
    cells = {}
    with common.Scratch() as scratch:
        for n, k in common.EXPECTED_TABLE_CELLS:
            data = run_expand(scratch, n, k)
            adm, nil = common.table_counts(data, n, k)
            cells[common.cell_id(n, k)] = {
                "sha256": common.sha256(data),
                "admissible": adm,
                "vanishing": nil,
            }
            print(f"table ({n},{k}): {adm} admissible, {nil} vanishing",
                  file=sys.stderr, flush=True)

    pool = []
    for n, k in common.COEFF_CELLS:
        lams = list(enumerate_admissible(n, k))
        drawn = random.Random(f"pool {n} {k}").sample(lams, common.POOL_PER_CELL)
        for lam in drawn:
            cache = MemoCache()
            t0 = time.perf_counter()
            value = g_coefficient(lam, n, k, cache)
            ms = (time.perf_counter() - t0) * 1e3
            pool.append({"n": n, "k": k, "lambda": list(lam), "coeff": str(value),
                         "misses": cache.misses})
            print(f"coeff ({n},{k}) {list(lam)}: {cache.misses} misses {ms:.1f} ms",
                  file=sys.stderr, flush=True)

    (HERE / "expected.json").write_text(render(cells, pool))
    return 0


def render(cells: dict, pool: list[dict]) -> str:
    """JSON with one table cell and one pool entry per line, for readable diffs."""
    rows = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in cells.items()]
    entries = [f"  {json.dumps(entry)}" for entry in pool]
    return ('{"cells": {\n' + ",\n".join(rows) + '\n},\n"pool": [\n'
            + ",\n".join(entries) + "\n]}\n")


if __name__ == "__main__":
    sys.exit(main())
