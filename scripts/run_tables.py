#!/usr/bin/env python3
"""Reproduce the admissible/vanishing count grids at configurable scale.

The default grid takes about 4.5 s in all, serial, on a 2-vCPU Xeon VM with
Python 3.11; its largest cell, (5,4), takes 2.2 to 2.5 s. --nmax-k1 N runs
the k=1 column up to n=N instead of n=8. On the same host a (9,1) table
takes 3.5 to 5.5 s and a (10,1) table 33 to 46 s, as the host's speed drifts
from run to run; (11,1) is untried. Each cell is counted as its terms come,
with no table held, so `--nmax-k1 10` peaks at about 535 MB RSS, the memo
of (10,1) and what the cells before it interned.

Examples:
    python scripts/run_tables.py
    python scripts/run_tables.py --nmax-k1 9 --jobs 2
"""

from __future__ import annotations

import argparse
import sys
import time

from vanschur.cli import closed_pipe_exit
from vanschur.coefficients import count_vanishing
from vanschur.partitions import count_admissible

DEFAULT_GRID = {
    1: range(2, 9),
    2: range(2, 7),
    3: range(2, 6),
    4: range(2, 6),
    5: range(2, 5),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--counts-only", action="store_true",
                        help="skip coefficient evaluation, print only the admissible grid")
    parser.add_argument("--nmax-k1", type=int, default=8,
                        help="largest n of the k=1 column, 2 to 11 (default 8)")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if not 2 <= args.nmax_k1 <= 11:
        parser.error(f"--nmax-k1 must be between 2 and 11, got {args.nmax_k1}")

    grid = {**DEFAULT_GRID, 1: range(2, args.nmax_k1 + 1)}

    print(f"{'k':>2} {'n':>3} {'admissible':>12} {'vanishing':>10} {'seconds':>9}")
    for k, ns in grid.items():
        for n in ns:
            t0 = time.time()
            if args.counts_only:
                adm, nil = count_admissible(n, k), "-"
            else:
                adm, nil = count_vanishing(n, k, workers=args.jobs)
            print(f"{k:>2} {n:>3} {adm:>12} {nil:>10} {time.time() - t0:>9.2f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # a reader that stops early, as `| head` does, is no error
        code = closed_pipe_exit()
    sys.exit(code)
