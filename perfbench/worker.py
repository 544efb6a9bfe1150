#!/usr/bin/env python3
"""Child process of the benchmark: one job, read as JSON from stdin.

Each job runs in a fresh interpreter, so the library's process-global state
(the ``_GROUP_TABLES`` cache in ``delta_engine``) starts cold, as it does for
a user's ``vanschur`` run. The result is one JSON object on stdout.

Jobs:
  setup         import vanschur and build the workload's inputs
  coeff         cold coefficients, each with a fresh MemoCache
  replay        one cell, or one stripe of it, with one MemoCache
  pool          one cell through `expand` with a process pool
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_source()

import vanschur  # noqa: E402
from vanschur.coefficients import expand, g_coefficient  # noqa: E402
from vanschur.delta_engine import MemoCache  # noqa: E402
from vanschur.partitions import enumerate_admissible  # noqa: E402


def cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def check_sample(sample, tracer: common.Tracer) -> int:
    """Enumerate each sampled cell and check every drawn partition is in it."""
    by_cell: dict[tuple[int, int], list] = {}
    for n, k, lam in sample:
        by_cell.setdefault((n, k), []).append(tuple(lam))
    admissible = 0
    for (n, k), lams in sorted(by_cell.items()):
        with tracer.span("partitions.enumerate_admissible"):
            members = set(enumerate_admissible(n, k))
        admissible += len(members)
        for lam in lams:
            if lam not in members:
                raise ValueError(f"sampled {list(lam)} is not admissible for ({n},{k})")
    return admissible


def job_setup(job) -> dict:
    admissible = check_sample(job.get("sample") or [], common.Tracer())
    return {"admissible": admissible}


def job_coeff(job) -> dict:
    """Each coefficient gets its own MemoCache: no sharing across samples."""
    tracer = common.Tracer()
    admissible = check_sample(job["sample"], tracer)
    span = tracer.span if job["trace"] else lambda name: nullcontext()
    rows = []
    cpu0 = cpu_self()
    t_loop = time.perf_counter()
    for n, k, lam in job["sample"]:
        cache = MemoCache()
        with span("delta_engine.g_coefficient"):
            t0 = time.perf_counter()
            value = g_coefficient(lam, n, k, cache)
            dt = time.perf_counter() - t0
        rows.append([str(value), dt, cache.hits, cache.misses, len(cache)])
    return {
        "rows": rows,
        "admissible": admissible,
        "loop_s": time.perf_counter() - t_loop,
        "cpu_s": cpu_self() - cpu0,
        "trace": tracer.summary(),
    }


def job_replay(job) -> dict:
    """Positions start, start+step, ... of one cell, serially with one MemoCache.

    With step 1 this is the serial `expand`; with step W it is stripe `start` of
    a W-way `expand` or `shard` run. With trace set, each call gets a span.
    """
    tracer = common.Tracer()
    n, k = job["cell"]
    with tracer.span("partitions.enumerate_admissible"):
        lams = list(enumerate_admissible(n, k))
    lams = lams[job["start"]::job["step"]]
    span = tracer.span if job["trace"] else lambda name: nullcontext()
    cache = MemoCache()
    values = []
    t0 = time.perf_counter()
    for lam in lams:
        with span("delta_engine.g_coefficient"):
            values.append(g_coefficient(lam, n, k, cache))
    seconds = time.perf_counter() - t0
    return {"lams": lams, "values": list(map(str, values)), "seconds": seconds,
            "hits": cache.hits, "misses": cache.misses, "entries": len(cache),
            "trace": tracer.summary()}


def job_pool(job) -> dict:
    """`expand` over the library's process pool, timed from this process."""
    n, k = job["cell"]
    t0 = time.perf_counter()
    values = [str(g) for g in expand(n, k, workers=job["workers"]).terms.values()]
    return {"values": values, "seconds": time.perf_counter() - t0}


JOBS = {"setup": job_setup, "coeff": job_coeff, "replay": job_replay, "pool": job_pool}


def main() -> int:
    job = json.loads(sys.stdin.read())
    src = Path(vanschur.__file__).resolve()
    if common.SRC not in src.parents:
        print(f"vanschur imported from {src}, not from {common.SRC}", file=sys.stderr)
        return 2
    result = JOBS[job["mode"]](job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
