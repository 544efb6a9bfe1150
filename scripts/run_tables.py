#!/usr/bin/env python3
"""Reproduce the admissible/vanishing count grids at configurable scale.

The default grid finishes in a couple of minutes on a laptop; --extended adds
the large single-column cases (k=1 up to --nmax-k1), which is where runtimes
start to be measured in minutes per cell.

Examples:
    python scripts/run_tables.py
    python scripts/run_tables.py --extended --nmax-k1 9 --jobs 2
"""

from __future__ import annotations

import argparse
import sys
import time

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
    parser.add_argument("--extended", action="store_true",
                        help="add k=1 columns past n=8")
    parser.add_argument("--nmax-k1", type=int, default=None,
                        help="largest n for the extended k=1 column, 2 to 11 "
                             "(default 9); needs --extended")
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.nmax_k1 is not None:
        if not args.extended:
            parser.error("--nmax-k1 needs --extended")
        if not 2 <= args.nmax_k1 <= 11:
            parser.error(f"--nmax-k1 must be between 2 and 11, got {args.nmax_k1}")

    grid = {k: list(ns) for k, ns in DEFAULT_GRID.items()}
    if args.extended:
        grid[1] = list(range(2, (args.nmax_k1 or 9) + 1))

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
    sys.exit(main())
