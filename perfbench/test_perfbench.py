"""Tests of the benchmark itself: smoke runs on tiny cells and injected faults.

    python3 -m pytest perfbench/test_perfbench.py -q

Each smoke run takes a few seconds; the fault tests run the benchmark on a
copy of the checkout whose library was edited to return a wrong value or a
wrong byte, and expect the fault to land in `failed` and `success_rate`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402


def bench(root: Path, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def smoke(root: Path, workload: str, trace: int = 0) -> dict:
    return result(bench(root, "--workload", workload, "--smoke", "--seconds", "1",
                        "--trace", str(trace), "--seed", "5"))


def copy_checkout(tmp_path: Path, with_source: bool = True) -> Path:
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__", ".perfbench-*")
    shutil.copytree(HERE, root / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_source:
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    return root


def patch(root: Path, module: str, old: str, new: str) -> None:
    path = root / "src" / "vanschur" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def skip_dist_on_one_cpu(workload: str) -> None:
    if workload == "dist" and (os.cpu_count() or 1) < 2:
        pytest.skip("dist runs two processes at once")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_is_correct_and_reports_every_metric(workload, trace):
    skip_dist_on_one_cpu(workload)
    res = smoke(ROOT, workload, trace)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert res["metrics"]["success_rate"]["value"] == 1.0
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    skip_dist_on_one_cpu("dist")
    counts = [name for name, unit in ((m["name"], m["unit"]) for m in SPEC["per_layer"])
              if unit == "count"]
    first, second = (smoke(ROOT, "dist", trace=1)["metrics"] for _ in range(2))
    assert [first[c] for c in counts] == [second[c] for c in counts]


def test_coeff_sample_is_seeded_and_large_enough():
    pool = json.loads((HERE / "expected.json").read_text())["pool"]
    draw = lambda seed: bench_run.draw_sample(pool, seed, bench_run.COEFF_CAP, bench_run.COEFF_TAIL,
                                              bench_run.COEFF_PARTS)
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    # at least ten samples beyond the 95th percentile
    assert sum(map(len, draw(7))) >= 200


@pytest.mark.parametrize("workload", ["table", "coeff"])
def test_wrong_value_is_a_failure(tmp_path, workload):
    root = copy_checkout(tmp_path)
    # (6,4,2,0) heads the (4,1) enumeration, so it is in the coeff smoke tail too
    patch(root, "coefficients.py",
          "return sign * evaluate(DeltaSpec.for_coefficient(lam, n, k), cache, factorize=factorize)",
          "return sign * evaluate(DeltaSpec.for_coefficient(lam, n, k), cache, factorize=factorize)"
          " + (lam == (6, 4, 2, 0))")
    res = smoke(root, workload)
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["success_rate"]["value"] == 1 - res["failed"] / res["attempted"] < 1


@pytest.mark.parametrize("workload", ["table", "dist"])
def test_wrong_byte_is_a_failure(tmp_path, workload):
    skip_dist_on_one_cpu(workload)
    root = copy_checkout(tmp_path)
    # values still parse and match the oracle; only the digest can catch this
    patch(root, "records.py", 'separators=(",", ":")', 'separators=(", ", ":")')
    res = smoke(root, workload)
    assert not res["correct"] and res["failed"] >= 1
    assert res["metrics"]["success_rate"]["value"] < 1


def test_failing_merge_is_a_failure_in_a_traced_run(tmp_path):
    skip_dist_on_one_cpu("dist")
    root = copy_checkout(tmp_path)
    patch(root, "cli.py", "def cmd_merge(args) -> int:\n",
          "def cmd_merge(args) -> int:\n    return VERIFY_EXIT\n")
    res = smoke(root, "dist", trace=1)
    assert not res["correct"] and res["failed"] >= 1


def test_refuses_without_library_source(tmp_path):
    proc = bench(copy_checkout(tmp_path, with_source=False), "--workload", "table", "--seconds", "1")
    assert proc.returncode != 0 and proc.stdout == ""


def test_refuses_a_cache_capacity_override():
    env = dict(os.environ, VANSCHUR_CACHE_CAPACITY="1000")
    proc = bench(ROOT, "--workload", "table", "--smoke", "--seconds", "1", env=env)
    assert proc.returncode != 0 and proc.stdout == ""
