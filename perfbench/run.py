#!/usr/bin/env python3
"""Benchmark of vanschur: full tables, cold coefficients and a two-process run.

    python3 perfbench/run.py --workload table --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload coeff --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --workload dist --smoke --seconds 1

Workloads (README.md says why each was chosen):
  table  serial `vanschur expand` of (8,1) and (5,3)
  coeff  cold g_coefficient calls sampled from (9,1), (5,4) and (7,2)
  dist   (8,1) on two processes: `expand --jobs 2`, then two concurrent
         `shard` processes and `merge`

--smoke swaps in the tiny cells (4,1) and (3,2) and also checks every value
against the brute-force oracle. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The last stdout line is the
result {"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's facts (host, seed, sample digest, load) and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import BenchError, median, quantile, vanschur_cmd  # noqa: E402

SETUP_PROBES = 9
PROCESS_START_PROBES = 5
# merges are short and host speed drifts: this many follow every timed unit,
# so merge_s is the median of merges spread over the whole run
MERGE_REPEATS = 3
DIST_PROCESSES = 2
# coeff sample: per cell, drop the COEFF_CAP costliest pool entries, always take
# the next COEFF_TAIL, and one of each adjacent pair of the rest (by memo misses).
COEFF_CAP = 8
COEFF_TAIL = 4
COEFF_PARTS = 2
SMOKE_COEFF_CAP, SMOKE_COEFF_TAIL = 0, 2

WORKER = [sys.executable, str(common.HERE / "worker.py")]


def draw_sample(pool: list[dict], seed: int, cap: int, tail: int, parts: int) -> list[list[dict]]:
    """Seeded sample stratified by cost, so its latency quantiles hold across seeds.

    Entries of each cell are ordered by the memo misses of a cold evaluation;
    the tail is always taken whole and the body contributes one entry of each
    adjacent pair, chosen by the seed. The sample, still in cost order, is dealt
    back and forth into `parts` parts of like cost; the order within each part
    is seeded too.
    """
    rng = random.Random(seed)
    cells = sorted({(e["n"], e["k"]) for e in pool})
    sample = []
    for n, k in cells:
        entries = sorted((e for e in pool if (e["n"], e["k"]) == (n, k)),
                         key=lambda e: (e["misses"], e["lambda"]))
        entries = entries[: len(entries) - cap]
        body = entries[: len(entries) - tail]
        sample += [body[i + rng.randrange(2)] for i in range(0, len(body) - 1, 2)]
        sample += entries[len(entries) - tail:]
    dealt: list[list[dict]] = [[] for _ in range(parts)]
    for i, entry in enumerate(sample):
        lap, pos = divmod(i, parts)
        dealt[pos if lap % 2 == 0 else parts - 1 - pos].append(entry)
    for part in dealt:
        rng.shuffle(part)
    return dealt


class Run:
    """One benchmark invocation: its arguments, scratch directory and checks."""

    def __init__(self, args, scratch: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.scratch = scratch
        self.expected = common.load_expected()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._oracle: dict = {}

    def check(self, problem: str | None, weight: int = 1) -> bool:
        """Count `weight` attempted operations, all failed when `problem` is set."""
        self.attempted += weight
        if problem:
            self.failed += weight
            self.failures.append(problem)
        return problem is None

    def oracle_terms(self, n: int, k: int) -> dict:
        if (n, k) not in self._oracle:
            from vanschur.oracle import schur_expansion_bruteforce

            self._oracle[(n, k)] = dict(schur_expansion_bruteforce(n, k).terms)
        return self._oracle[(n, k)]

    def table_problem(self, data: bytes, n: int, k: int) -> str | None:
        problem = common.table_ok(data, n, k, self.expected["cells"][common.cell_id(n, k)])
        if problem is None and self.smoke:
            got = {tuple(o["lambda"]): int(o["coeff"])
                   for o in map(json.loads, data.decode().splitlines())}
            if got != self.oracle_terms(n, k):
                problem = f"({n},{k}) output differs from schur_expansion_bruteforce"
        return problem

    def check_table(self, child: common.Child, path: Path, n: int, k: int) -> bytes | None:
        """Check one table file a child wrote; its bytes when they are right."""
        if child.returncode != 0:
            self.check(child.describe_failure())
            return None
        data = path.read_bytes()
        return data if self.check(self.table_problem(data, n, k)) else None

    def fresh(self, name: str) -> Path:
        path = self.scratch / name
        path.unlink(missing_ok=True)
        return path

    def expand(self, n: int, k: int) -> tuple[common.Child, bytes | None]:
        """Serial `vanschur expand` of one cell; its bytes when they are right."""
        path = self.fresh(f"table_{n}_{k}.jsonl")
        child = common.run(vanschur_cmd("expand", "--n", n, "--k", k, "--out", path), self.scratch)
        return child, self.check_table(child, path, n, k)

    def merge_walls(self, shards: list[Path], n: int, k: int) -> list[float]:
        """Seconds of MERGE_REPEATS `vanschur merge` runs over the same shards."""
        walls = []
        for _ in range(MERGE_REPEATS):
            out = self.fresh(f"merged_{n}_{k}.jsonl")
            child = common.run(vanschur_cmd("merge", *shards, "--out", out), self.scratch)
            walls.append(child.wall)
            self.check_table(child, out, n, k)
        return walls

    def one_shard(self, n: int, k: int, data: bytes) -> list[Path]:
        """A table written as the only shard of a one-shard run, for `vanschur merge`."""
        from vanschur.records import ShardManifest, enumeration_checksum, manifest_to_jsonl

        manifest = ShardManifest(n=n, k=k, shards=1, index=0, count=len(data.splitlines()),
                                 checksum=enumeration_checksum(n, k))
        shard = self.fresh(f"one_shard_{n}_{k}.jsonl")
        shard.write_bytes((manifest_to_jsonl(manifest) + "\n").encode() + data)
        return [shard]

    def worker(self, job: dict) -> tuple[common.Child, dict | None]:
        child = common.run(WORKER, self.scratch, json.dumps(job))
        if child.returncode != 0:
            return child, None
        return child, json.loads(child.stdout)

    def process_start_s(self) -> float:
        walls = []
        for _ in range(PROCESS_START_PROBES):
            child = common.run(vanschur_cmd("admissible", "--n", 3, "--k", 1, "--count-only"),
                               self.scratch)
            self.check(child.describe_failure() if child.returncode else None)
            walls.append(child.wall)
        return median(walls)

    def records_layer(self, tables: list[list], cells) -> tuple[dict, list[bytes]]:
        """Encode ResultRecords as JSONL, decode them back and checksum the cells' enumerations.

        Returns the metrics and the encoded bytes of each table.
        """
        from vanschur.records import enumeration_checksum, read_records, write_records

        t0 = time.perf_counter()
        datas = ["".join(write_records(recs, "jsonl")).encode() for recs in tables]
        t1 = time.perf_counter()
        decoded = [list(read_records(data.decode().splitlines(), "jsonl")) for data in datas]
        t2 = time.perf_counter()
        for n, k in cells:
            enumeration_checksum(n, k)
        t3 = time.perf_counter()
        self.check(None if decoded == tables else "records do not round-trip")
        metrics = {"records.encode_s": t1 - t0, "records.decode_s": t2 - t1,
                   "records.checksum_s": t3 - t2, "records.bytes": sum(map(len, datas))}
        return metrics, datas


def job_sample(sample: list[dict]) -> list:
    """Pool entries as the worker's [n, k, lambda] triples."""
    return [[e["n"], e["k"], e["lambda"]] for e in sample]


def result_records(rows) -> list:
    """ResultRecords from (n, k, lam, coefficient) rows."""
    from vanschur.records import ResultRecord

    return [ResultRecord(n=n, k=k, lam=lam, coeff=int(g)) for n, k, lam, g in rows]


def span_total(results: list[dict], name: str) -> float:
    """Total seconds of the spans called `name` over worker results."""
    return sum(r["trace"][name]["total_s"] for r in results if name in r["trace"])


def factorized_share(items) -> float:
    """Share of (lam, n, k) for which factorize_g finds a block split."""
    from vanschur.coefficients import factorize_g

    items = list(items)
    return sum(factorize_g(lam, n, k) is not None for lam, n, k in items) / len(items)


def memo_metrics(caches: list[list[int]]) -> dict:
    """Engine counters from MemoCaches given as [hits, misses, entries, coefficients].

    Evictions are computed as misses minus entries: every miss inserts once.
    """
    hits = sum(c[0] for c in caches)
    misses = sum(c[1] for c in caches)
    return {
        "delta_engine.memo_hits": hits,
        "delta_engine.memo_misses": misses,
        "delta_engine.memo_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "delta_engine.misses_per_coeff": misses / sum(c[3] for c in caches),
        "delta_engine.memo_entries": max(c[2] for c in caches),
        "delta_engine.memo_evictions": sum(c[1] - c[2] for c in caches),
    }


class Table:
    """Serial full tables through the CLI, each written as `vanschur expand` does.

    A unit is one cell's `expand`; the (8,1) table, once made, stands in as a
    one-shard input for merge_s.
    """

    def __init__(self, run: Run):
        self.run = run
        self.cells = list(common.SMOKE_CELLS if run.smoke else common.TABLE_CELLS)
        random.Random(run.seed).shuffle(self.cells)
        self.kinds = self.cells
        self.merge_cell = common.SMOKE_CELLS[0] if run.smoke else common.DIST_CELL
        self.merge_input = None

    def inputs(self):
        return {"cells": self.cells}

    def setup_job(self):
        return {"mode": "setup"}

    def unit(self, cell) -> dict:
        child, data = self.run.expand(*cell)
        if cell == self.merge_cell and data is not None and self.merge_input is None:
            self.merge_input = (self.run.one_shard(*cell, data), *cell)
        return {"wall_s": child.wall, "cpu_s": child.cpu, "rss_mb": child.rss_mb,
                "coeffs": self.run.expected["cells"][common.cell_id(*cell)]["admissible"]}

    def replays(self, trace: bool) -> list[dict] | None:
        """Each cell as a serial `replay` job in a fresh worker, as `expand --jobs 1` runs it."""
        results = []
        for n, k in self.cells:
            child, res = self.run.worker({"mode": "replay", "cell": [n, k], "start": 0, "step": 1,
                                          "trace": trace})
            if res is None:
                self.run.check(child.describe_failure())
                return None
            results.append(res)
        return results

    def traced_pass(self) -> tuple[dict, dict]:
        run = self.run
        plain = self.replays(trace=False)
        traced = self.replays(trace=True) if plain else None
        if not traced:
            return {}, {}
        tables = [result_records((n, k, lam, g) for lam, g in zip(r["lams"], r["values"]))
                  for (n, k), r in zip(self.cells, traced)]
        records, datas = run.records_layer(tables, self.cells)
        for data, (n, k) in zip(datas, self.cells):
            run.check(run.table_problem(data, n, k))
        untraced_s = sum(r["seconds"] for r in plain)
        traced_s = sum(r["seconds"] for r in traced)
        layers = {
            "partitions.enumerate_s": span_total(traced, "partitions.enumerate_admissible"),
            "partitions.admissible": sum(len(t) for t in tables),
            "delta_engine.evaluate_s": span_total(traced, "delta_engine.g_coefficient"),
            **memo_metrics([[r["hits"], r["misses"], r["entries"], len(r["lams"])] for r in traced]),
            "coefficients.factorized_share": factorized_share(
                (r.lam, r.n, r.k) for t in tables for r in t),
            **records,
            "trace.overhead_s": traced_s - untraced_s,
        }
        return layers, {"untraced_s": untraced_s, "traced_s": traced_s,
                        "spans": [r["trace"] for r in traced]}


class Coeff:
    """Cold single coefficients in a fresh worker, each with its own MemoCache.

    The sample is dealt into COEFF_PARTS parts, the unit kinds; a unit is one
    part in one worker, so a run times each part several times and takes medians.
    merge_s stands in as the merge of the tiny (4,1) table presented as one
    shard: `vanschur` start-up and little else.
    """

    def __init__(self, run: Run):
        self.run = run
        if run.smoke:
            pool = [{"n": n, "k": k, "lambda": list(lam), "coeff": str(g), "misses": 0}
                    for n, k in common.SMOKE_CELLS for lam, g in run.oracle_terms(n, k).items()]
            self.parts = draw_sample(pool, run.seed, SMOKE_COEFF_CAP, SMOKE_COEFF_TAIL, COEFF_PARTS)
        else:
            self.parts = draw_sample(run.expected["pool"], run.seed, COEFF_CAP, COEFF_TAIL,
                                     COEFF_PARTS)
        self.sample = [e for part in self.parts for e in part]
        self.kinds = list(range(COEFF_PARTS))
        cell = common.SMOKE_CELLS[0]
        _, data = run.expand(*cell)
        self.merge_input = (run.one_shard(*cell, data), *cell) if data is not None else None

    def inputs(self):
        return {"sample": job_sample(self.sample)}

    def setup_job(self):
        return {"mode": "setup", "sample": job_sample(self.sample)}

    def _compute(self, sample: list[dict], traced: bool) -> dict | None:
        run = self.run
        child, res = run.worker({"mode": "coeff", "sample": job_sample(sample), "trace": traced})
        if res is None:
            run.check(child.describe_failure(), len(sample))
            return None
        for row, want in zip(res["rows"], sample):
            run.check(None if row[0] == want["coeff"] else
                      f"g({want['lambda']}; {want['n']}, {want['k']}) = {row[0]}, recorded {want['coeff']}")
        res["rss_mb"] = child.rss_mb
        return res

    def unit(self, part: int) -> dict:
        res = self._compute(self.parts[part], traced=False)
        if res is None:
            return {"wall_s": 0.0, "cpu_s": 0.0, "coeffs": 0, "rss_mb": 0.0, "latencies_ms": [0.0]}
        return {"wall_s": res["loop_s"], "cpu_s": res["cpu_s"], "coeffs": len(res["rows"]),
                "rss_mb": res["rss_mb"], "latencies_ms": [row[1] * 1e3 for row in res["rows"]]}

    def traced_pass(self) -> tuple[dict, dict]:
        plain = self._compute(self.sample, traced=False)
        res = self._compute(self.sample, traced=True) if plain else None
        if res is None:
            return {}, {}
        trace = res["trace"]
        tables = [result_records((e["n"], e["k"], e["lambda"], e["coeff"]) for e in self.sample)]
        records, _ = self.run.records_layer(tables, sorted({(e["n"], e["k"]) for e in self.sample}))
        layers = {
            "partitions.enumerate_s": trace["partitions.enumerate_admissible"]["total_s"],
            "partitions.admissible": res["admissible"],
            "delta_engine.evaluate_s": trace["delta_engine.g_coefficient"]["total_s"],
            **memo_metrics([[h, m, e, 1] for _, _, h, m, e in res["rows"]]),
            "coefficients.factorized_share": factorized_share(
                (e["lambda"], e["n"], e["k"]) for e in self.sample),
            **records,
            "trace.overhead_s": res["loop_s"] - plain["loop_s"],
        }
        return layers, {"untraced_s": plain["loop_s"], "traced_s": res["loop_s"], "spans": trace}


class Dist:
    """One cell on two processes: `expand --jobs 2`, and two `shard` runs plus `merge`.

    The two are the unit kinds, taken in turn in an order the seed picks; the
    latest shard files are the merge_s input.
    """

    def __init__(self, run: Run):
        cpus = os.cpu_count() or 1
        if cpus < DIST_PROCESSES:
            raise BenchError(f"dist runs {DIST_PROCESSES} processes at once; this host has {cpus} CPU")
        self.run = run
        self.cell = common.SMOKE_CELLS[0] if run.smoke else common.DIST_CELL
        self.kinds = ["expand", "shard"]
        random.Random(run.seed).shuffle(self.kinds)
        self.merge_input = None

    def inputs(self):
        return {"cell": self.cell, "order": self.kinds}

    def setup_job(self):
        return {"mode": "setup"}

    def unit(self, kind: str, tracer: common.Tracer | None = None) -> dict:
        run = self.run
        n, k = self.cell
        span = tracer.span if tracer else lambda name: nullcontext()
        coeffs = run.expected["cells"][common.cell_id(n, k)]["admissible"]
        if kind == "expand":
            out = run.fresh("dist_expand.jsonl")
            with span("cli.expand"):
                child = common.run(vanschur_cmd("expand", "--n", n, "--k", k, "--jobs",
                                                DIST_PROCESSES, "--out", out), run.scratch)
            run.check_table(child, out, n, k)
            return {"wall_s": child.wall, "cpu_s": child.cpu, "rss_mb": child.rss_mb, "coeffs": coeffs}
        shards = [run.fresh(f"dist_shard{j}.jsonl") for j in range(DIST_PROCESSES)]
        t0 = time.perf_counter()
        with span("cli.shard"):
            children = [common.Child(vanschur_cmd("shard", "--n", n, "--k", k, "--shards",
                                                  DIST_PROCESSES, "--index", j, "--out", shards[j]),
                                     run.scratch) for j in range(DIST_PROCESSES)]
            for child in children:
                child.wait()
        shard_s = time.perf_counter() - t0
        for child in children:
            run.check(child.describe_failure() if child.returncode else None)
        merged = run.fresh("dist_merged.jsonl")
        with span("cli.merge"):
            merge = common.run(vanschur_cmd("merge", *shards, "--out", merged), run.scratch)
        run.check_table(merge, merged, n, k)
        self.merge_input = (shards, n, k)
        spent = children + [merge]
        return {"wall_s": shard_s + merge.wall, "cpu_s": sum(c.cpu for c in spent),
                "rss_mb": max(c.rss_mb for c in spent), "coeffs": coeffs, "shard_s": shard_s}

    def one_round(self, tracer: common.Tracer | None = None) -> dict:
        """One unit of each kind; the seconds of each and of their sum."""
        walls = {kind: self.unit(kind, tracer) for kind in self.kinds}
        return {"wall_s": sum(u["wall_s"] for u in walls.values()),
                "expand_s": walls["expand"]["wall_s"], "shard_s": walls["shard"]["shard_s"]}

    def traced_pass(self) -> tuple[dict, dict]:
        run = self.run
        n, k = self.cell
        untraced = self.one_round()
        tracer = common.Tracer()
        traced = self.one_round(tracer)
        merge_walls = run.merge_walls(*self.merge_input)
        # each replay runs in its own fresh process, cold like a real worker
        jobs = [{"mode": "replay", "cell": [n, k], "start": 0, "step": 1, "trace": False}]
        jobs += [{"mode": "replay", "cell": [n, k], "start": j, "step": DIST_PROCESSES, "trace": False}
                 for j in range(DIST_PROCESSES)]
        jobs.append({"mode": "pool", "cell": [n, k], "workers": DIST_PROCESSES})
        results = []
        for job in jobs:
            child, res = run.worker(job)
            if res is None:
                run.check(child.describe_failure())
                return {}, {}
            results.append(res)
        serial, stripes, pool = results[0], results[1:-1], results[-1]
        expect = serial["values"]
        replayed = [v for j, s in enumerate(stripes) for v in zip(s["values"], expect[j::DIST_PROCESSES])]
        replayed += list(zip(pool["values"], expect))
        wrong = sum(a != b for a, b in replayed) + (len(replayed) != 2 * len(expect))
        run.check(f"{wrong} replayed coefficients differ from the serial replay" if wrong else None)
        table = result_records((n, k, lam, g) for lam, g in zip(serial["lams"], expect))
        records, datas = run.records_layer([table], [self.cell])
        run.check(run.table_problem(datas[0], n, k))
        seconds = [s["seconds"] for s in stripes]
        layers = {
            "partitions.enumerate_s": span_total([serial], "partitions.enumerate_admissible"),
            "partitions.admissible": len(expect),
            "delta_engine.evaluate_s": sum(seconds),
            **memo_metrics([[s["hits"], s["misses"], s["entries"], len(s["lams"])] for s in stripes]),
            "coefficients.factorized_share": factorized_share((r.lam, r.n, r.k) for r in table),
            **records,
            "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        }
        extra = {
            "coefficients.stripe_misses_ratio": sum(s["misses"] for s in stripes) / serial["misses"],
            "coefficients.stripe_imbalance": max(seconds) / (sum(seconds) / len(seconds)),
            "coefficients.parallel_eff": serial["seconds"] / (DIST_PROCESSES * pool["seconds"]),
            "coefficients.pool_overhead_s": pool["seconds"] - max(seconds),
            "coefficients.serial_misses": serial["misses"],
            "coefficients.serial_s": serial["seconds"],
            "coefficients.pool_s": pool["seconds"],
            "cli.shard_s_max": traced["shard_s"],
            "cli.merge_s": median(merge_walls),
            "cli.expand_jobs2_s": traced["expand_s"],
        }
        return layers, {"dist_layers": extra, "untraced_s": untraced["wall_s"],
                        "traced_s": traced["wall_s"], "spans": tracer.summary()}


WORKLOADS = {"table": Table, "coeff": Coeff, "dist": Dist}


def timed_units(run: Run, workload) -> list[dict]:
    """Units of the workload's kinds in turn, until the next would end past --seconds.

    At least one unit of each kind. MERGE_REPEATS merges of the workload's
    merge input follow every unit once that input exists, and count in the time.
    """
    units = []
    t0 = time.perf_counter()
    while True:
        kind = workload.kinds[len(units) % len(workload.kinds)]
        unit = workload.unit(kind)
        unit["kind"] = kind
        unit["merge_walls"] = run.merge_walls(*workload.merge_input) if workload.merge_input else []
        units.append(unit)
        elapsed = time.perf_counter() - t0
        if len(units) >= len(workload.kinds) and elapsed + elapsed / len(units) > run.seconds:
            return units


def setup_times(run: Run, workload) -> list[float]:
    """Walls of fresh worker processes that import vanschur and build the inputs.

    One untimed probe first, so the timed ones find compiled bytecode.
    """
    job = json.dumps(workload.setup_job())
    walls = []
    for i in range(SETUP_PROBES + 1):
        child = common.run(WORKER, run.scratch, job)
        run.check(child.describe_failure() if child.returncode else None)
        if i:
            walls.append(child.wall)
    return walls


def end_to_end(run: Run, workload) -> tuple[dict, dict]:
    """A pass is one unit of each kind; each of its times is the sum of the kinds' medians."""
    setups = setup_times(run, workload)
    units = timed_units(run, workload)
    by_kind: dict = {}
    for u in units:
        by_kind.setdefault(str(u["kind"]), []).append(u)

    def per_pass(key: str) -> float:
        return sum(median([u[key] for u in us]) for us in by_kind.values())

    wall = per_pass("wall_s")
    coeffs = sum(us[0]["coeffs"] for us in by_kind.values())
    # each coefficient's latency is its median over the units of its kind
    latencies = [median(list(col)) for us in by_kind.values() if "latencies_ms" in us[0]
                 for col in zip(*(u["latencies_ms"] for u in us))]
    if latencies:
        p50 = quantile(latencies, 0.50)
        p95 = quantile(latencies, 0.95)
    else:
        # a table publishes every coefficient at once: the amortised time
        p50 = p95 = 1e3 * wall / coeffs
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "cpu_s": per_pass("cpu_s"),
        "coeffs_per_s": coeffs / wall if wall else 0.0,
        "coeff_p50_ms": p50,
        "coeff_p95_ms": p95,
        "merge_s": median([w for u in units for w in u["merge_walls"]] or [0.0]),
        "peak_rss_mb": max(u["rss_mb"] for u in units),
        "success_rate": 1 - run.failed / run.attempted,
    }
    details = {"units": [{k: v for k, v in u.items() if k != "latencies_ms"} for u in units],
               "setup_walls": setups, "latency_samples": len(latencies)}
    return metrics, details


def per_layer(run: Run, workload) -> tuple[dict, dict]:
    """Per-layer metrics; each traced_pass also times its own job with spans off."""
    layers, extra = workload.traced_pass()
    layers["cli.process_start_s"] = run.process_start_s()
    return layers, extra


def select(spec: list[dict], values: dict, run: Run) -> dict:
    """The metrics of `spec` in its order; 0 for those a failed step left unmeasured."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing and not run.failed:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells (4,1) and (3,2), also checked against the oracle")
    args = parser.parse_args(argv)
    try:
        if common.CACHE_CAPACITY_ENV in os.environ:
            raise BenchError(f"{common.CACHE_CAPACITY_ENV} is set; it changes memo behaviour")
        common.require_source()
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        facts = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform(),
            "loadavg_start": os.getloadavg(),
        }
        with common.Scratch() as scratch:
            run = Run(args, scratch)
            workload = WORKLOADS[args.workload](run)
            inputs = json.dumps(workload.inputs(), sort_keys=True).encode()
            facts["sample_sha256"] = common.sha256(inputs)
            if args.trace:
                values, details = per_layer(run, workload)
                metrics = select(spec["per_layer"], values, run)
            else:
                values, details = end_to_end(run, workload)
                metrics = select(spec["end_to_end"], values, run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts.update(fail_rate=run.failed / run.attempted, failures=run.failures[:20],
                 loadavg_end=os.getloadavg())
    print(json.dumps({"facts": facts, "details": details}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
