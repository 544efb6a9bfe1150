import concurrent.futures
import errno
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given
import hypothesis.strategies as st

from vanschur import cli, coefficients
from vanschur.cli import main
from vanschur.records import (
    ResultRecord,
    enumeration_checksum,
    read_records,
    record_from_csv,
    record_from_jsonl,
    record_to_csv,
    record_to_jsonl,
    write_records,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_known_value(capsys):
    code, out, err = run_cli(["coeff", "--n", "3", "--k", "1", "--lambda", "4,1,1"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record == {"n": 3, "k": 1, "lambda": [4, 1, 1], "coeff": "-3"}


def test_coeff_two_letters(capsys):
    code, out, _ = run_cli(["coeff", "--n", "2", "--k", "1", "--lambda", "2,0"], capsys)
    assert code == 0
    assert json.loads(out)["coeff"] == "1"


def test_coeff_inadmissible_warns_and_reports_zero(capsys):
    code, out, err = run_cli(["coeff", "--n", "2", "--k", "1", "--lambda", "3,0"], capsys)
    assert code == 0
    assert json.loads(out)["coeff"] == "0"
    assert "not admissible" in err


def test_coeff_malformed_lambda_is_usage_error(capsys):
    code, _, err = run_cli(["coeff", "--n", "2", "--k", "1", "--lambda", "1,2"], capsys)
    assert code == 1
    assert "decreasing" in err
    code, _, _ = run_cli(["coeff", "--n", "2", "--k", "1", "--lambda", "a,b"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "lam, message",
    [("2,-1", "negative part in partition: [2, -1]"),
     ("1,1,1", "partition [1, 1, 1] has more than 2 parts")],
)
def test_coeff_refuses_a_negative_part_or_too_many_parts(capsys, lam, message):
    code, out, err = run_cli(["coeff", "--n", "2", "--k", "1", "--lambda", lam], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("lam", ["+4,1,1", "\u0664,1,1", "4,1,1_0", " 4,1,1"])
def test_coeff_reads_parts_only_as_records_write_them(capsys, lam):
    # int() takes each of these, all as (4, 1, 1) but the third, which it
    # reads as (4, 1, 10); the second starts with an Arabic-Indic four
    code, out, err = run_cli(["coeff", "--n", "3", "--k", "1", "--lambda", lam], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse partition {lam!r}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["admissible", "--n", "\u0663", "--k", "1", "--count-only"],
        ["admissible", "--n", "1_0", "--k", "1", "--count-only"],
        ["admissible", "--n", "3", "--k", "+1", "--count-only"],
        ["expand", "--n", "3", "--k", "1", "--jobs", "\u0662"],
        ["shard", "--n", "3", "--k", "1", "--shards", "+2", "--index", "0"],
        ["shard", "--n", "3", "--k", "1", "--shards", "2", "--index", "0_0"],
        ["grid", "--jobs", "+2"],
    ],
    ids=["n-arabic-indic", "n-underscore", "k-plus", "jobs", "shards", "index", "grid-jobs"],
)
def test_integer_flags_take_only_ascii_decimals(capsys, args):
    # int() would count the (3,1) or (10,1) table, or run the command
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: vanschur {args[0]} ")
    # the usage is followed by a line that names the flag refused
    ((flag, value),) = [(flag, value) for flag, value in zip(args[1::2], args[2::2])
                        if not (value.isascii() and value.isdigit())]
    assert err.splitlines()[-1] == (f"vanschur {args[0]}: error: argument {flag}: "
                                    f"not a decimal integer: {value!r}")


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--n", "3", "--k", "1", "--jobs", "0"],
        ["expand", "--n", "3", "--k", "1", "--jobs", "-1"],
        ["shard", "--n", "3", "--k", "1", "--shards", "0", "--index", "0"],
    ],
    ids=["jobs-0", "jobs-minus-1", "shards-0"],
)
def test_a_count_below_one_names_its_flag(tmp_path, capsys, args):
    target = tmp_path / "x.jsonl"
    code, out, err = run_cli([*args, "--out", str(target)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: vanschur {args[0]} ")
    assert err.splitlines()[-1] == (f"vanschur {args[0]}: error: argument {args[5]}: "
                                    f"must be >= 1, got {args[6]}")
    assert list(tmp_path.iterdir()) == []


def _dies(args):
    os._exit(1)


def test_a_worker_that_dies_is_one_line_and_no_output(tmp_path, capsys, monkeypatch):
    # a worker killed with SIGKILL leaves the pool broken; forked workers see
    # the patched class runner and end at once
    monkeypatch.setattr(coefficients, "_class_values", _dies)
    monkeypatch.setattr(coefficients.os, "cpu_count", lambda: 2)
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=fork))
    target = tmp_path / "x.jsonl"
    code, out, err = run_cli(
        ["expand", "--n", "6", "--k", "1", "--jobs", "2", "--out", str(target)], capsys
    )
    assert (code, out) == (1, "")
    assert err == "error: a worker process ended before its class was done\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["coeff", "--n", "2", "--k", "1"], capsys)[0] == 1
    assert run_cli(["bogus"], capsys)[0] == 1


def test_nonpositive_n_is_clean_usage_error(capsys):
    code, _, err = run_cli(["admissible", "--n", "0", "--k", "1"], capsys)
    assert code == 1
    assert "positive" in err


def test_verify_over_budget_is_clean_refusal(capsys, monkeypatch):
    # the oracle refuses before the engine computes the cell
    def never(*args, **kwargs):
        raise AssertionError("expand ran before the oracle's budget check")

    # the command imports expand when it runs, so it is patched where it lives
    monkeypatch.setattr("vanschur.coefficients.expand", never)
    code, _, err = run_cli(["verify", "--n", "7", "--k", "1"], capsys)
    assert code == 1
    assert "budget" in err


def test_expand_jsonl_order(capsys):
    code, out, _ = run_cli(["expand", "--n", "2", "--k", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert [json.loads(l)["lambda"] for l in lines] == [[2, 0], [1, 1]]
    assert [json.loads(l)["coeff"] for l in lines] == ["1", "-3"]


def test_expand_csv_round_trip(tmp_path, capsys):
    out_path = tmp_path / "exp.csv"
    code, _, _ = run_cli(
        ["expand", "--n", "3", "--k", "1", "--format", "csv", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    records = [record_from_csv(l) for l in lines]
    assert [r.lam for r in records] == [
        (4, 2, 0),
        (4, 1, 1),
        (3, 3, 0),
        (3, 2, 1),
        (2, 2, 2),
    ]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("n, k", [(4, 1), (3, 2), (6, 1), (5, 2), (4, 2)])
def test_expand_jobs_do_not_change_bytes(tmp_path, capsys, n, k, fmt):
    # the streamed records, serial or from the pool, are the bytes of the
    # table that expand() builds
    table = coefficients.expand(n, k)
    want = "".join(write_records(
        (ResultRecord(n=n, k=k, lam=lam, coeff=g) for lam, g in table), fmt)).encode()
    for jobs in (1, 2):
        path = tmp_path / f"out{jobs}.{fmt}"
        code, _, _ = run_cli(
            ["expand", "--n", str(n), "--k", str(k), "--jobs", str(jobs), "--format", fmt,
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_bytes() == want, jobs


def test_expand_writes_its_first_record_after_one_member(capsys, monkeypatch):
    calls = []
    at_line = []
    real_g, real_write = coefficients.g_coefficient, cli.write_records

    def counting(*args):
        calls.append(args[0])
        return real_g(*args)

    def watched(records, fmt):
        for line in real_write(records, fmt):
            at_line.append(len(calls))
            yield line

    monkeypatch.setattr(coefficients, "g_coefficient", counting)
    monkeypatch.setattr(cli, "write_records", watched)
    code, out, _ = run_cli(["expand", "--n", "6", "--k", "1"], capsys)
    assert code == 0 and len(out.splitlines()) == 247
    # 247 partitions in 143 complement pairs, each evaluated once
    assert at_line[0] == 1 and len(calls) == len(set(calls)) == at_line[-1] == 143


def test_expand_stops_at_a_closed_pipe_long_before_the_table_is_done():
    # the reader is gone before the first write, so the first flush of
    # stdout, after about 8 kB of records, ends the command
    script = (
        "import sys\n"
        "from vanschur import coefficients\n"
        "from vanschur.cli import main\n"
        "calls = []\n"
        "real = coefficients.g_coefficient\n"
        "coefficients.g_coefficient = lambda *args: calls.append(1) or real(*args)\n"
        "code = main(sys.argv[1:])\n"
        "print(len(calls), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, "expand", "--n", "8", "--k", "1"],
            stdout=write, stderr=subprocess.PIPE, env=_src_env(), timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    # the (8,1) table has 2,756 distinct members
    assert 0 < int(proc.stderr) < 300


def test_admissible_listing_and_count(capsys):
    code, out, _ = run_cli(["admissible", "--n", "2", "--k", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["2 0", "1 1"]
    code, out, _ = run_cli(["admissible", "--n", "7", "--k", "1", "--count-only"], capsys)
    assert code == 0
    assert out.strip() == "1111"


def test_verify_ok(capsys):
    assert run_cli(["verify", "--n", "2", "--k", "1"], capsys)[0] == 0
    assert run_cli(["verify", "--n", "3", "--k", "1"], capsys)[0] == 0


def _write_shards(tmp_path, capsys, n, k, shards):
    paths = []
    for index in range(shards):
        path = tmp_path / f"shard{index}.jsonl"
        code, _, _ = run_cli(
            [
                "shard",
                "--n", str(n),
                "--k", str(k),
                "--shards", str(shards),
                "--index", str(index),
                "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        paths.append(path)
    return paths


def test_shard_merge_round_trip(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 5, 1, 3)
    merged = tmp_path / "merged.jsonl"
    code, _, _ = run_cli(["merge", *map(str, paths), "--out", str(merged)], capsys)
    assert code == 0
    direct = tmp_path / "direct.jsonl"
    run_cli(["expand", "--n", "5", "--k", "1", "--out", str(direct)], capsys)
    assert merged.read_bytes() == direct.read_bytes()


def test_single_shard_equals_expand(tmp_path, capsys):
    (path,) = _write_shards(tmp_path, capsys, 4, 1, 1)
    merged = tmp_path / "merged.jsonl"
    assert run_cli(["merge", str(path), "--out", str(merged)], capsys)[0] == 0
    direct = tmp_path / "direct.jsonl"
    run_cli(["expand", "--n", "4", "--k", "1", "--out", str(direct)], capsys)
    assert merged.read_bytes() == direct.read_bytes()


def test_merge_reports_missing_shard(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 6, 1, 4)
    code, _, err = run_cli(
        ["merge", *map(str, paths[1:]), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert err == "merge failure: missing shard index(es) [0]\n"


def test_merge_cost_ignores_a_claimed_shard_count(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 3, 1, 1)
    text = paths[0].read_text().replace('"shards":1', f'"shards":{10**6}', 1)
    paths[0].write_text(text)
    code, _, err = run_cli(
        ["merge", str(paths[0]), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert "missing shard index(es) [1, 2, 3, 4, 5] and 999994 more" in err
    assert len(err) < 1000


def test_merge_cost_ignores_a_claimed_n(tmp_path, capsys, monkeypatch):
    # records that contradict their manifest are refused before the claimed
    # (n, k) is enumerated
    def never(*args, **kwargs):
        raise AssertionError("enumeration ran before the per-file checks")

    paths = _write_shards(tmp_path, capsys, 3, 1, 1)
    text = paths[0].read_text().replace('"n":3', '"n":40', 1)
    paths[0].write_text(text)
    monkeypatch.setattr(cli, "enumeration_checksum", never)
    code, _, err = run_cli(
        ["merge", str(paths[0]), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert "record 0 is for (n, k) = (3, 1)" in err
    assert not (tmp_path / "m.jsonl").exists()


ABSURD_MANIFEST = ('{"manifest":{"n":1000000000,"k":1,"shards":1,"index":0,"count":%d,'
                   '"checksum":"x","layout":"pair-class"}}')


@pytest.mark.parametrize(
    "manifest, records, message",
    [
        pytest.param(
            None, ['{"n":100000000000000000000,"k":1,"lambda":[4,2,0],"coeff":"1"}'],
            "{path}:2: record 0 is for (n, k) = (100000000000000000000, 1), "
            "its manifest claims (3, 1)",
            id="100000000000000000000",
        ),
        pytest.param(
            None, ['{"n":1000000000,"k":1,"lambda":[4,2,0],"coeff":"1"}'],
            "{path}:2: record 0 is for (n, k) = (1000000000, 1), its manifest claims (3, 1)",
            id="1000000000",
        ),
        pytest.param(
            ABSURD_MANIFEST % 1, ['{"n":1000000000,"k":1,"lambda":[4,2,0],"coeff":"1"}'],
            "{path}:2: record 0 has 3 parts, its manifest's n is 1000000000",
            id="short-record-of-an-absurd-manifest",
        ),
        pytest.param(
            ABSURD_MANIFEST % 0, [],
            "the shards hold no records, and no admissible table is empty",
            id="empty-absurd-manifest",
        ),
    ],
)
def test_merge_refuses_a_record_for_an_absurd_n(tmp_path, capsys, manifest, records, message):
    # nothing n long is built for an n that the file does not hold: a record
    # is padded to n parts only after its (n, k) and part count match its
    # manifest's, and an absurd manifest with no records is refused before
    # its (n, k) is enumerated. 10^20 would overflow, and 10^9 would ask for
    # gigabytes, a MemoryError under the 1 GB address-space limit the merge
    # runs under here, so a clean exit 2 shows that nothing of that size was
    # asked for. None stands for the manifest of a real (3, 1) shard whose
    # count is cut to its one record.
    (path,) = _write_shards(tmp_path, capsys, 3, 1, 1)
    if manifest is None:
        manifest = path.read_text().splitlines()[0].replace('"count":5', '"count":1')
    path.write_text("".join(line + "\n" for line in [manifest, *records]))
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from vanschur.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "merge", str(path), "--out", str(tmp_path / "m.jsonl")],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"merge failure: {message.format(path=path)}\n"
    assert float(proc.stdout) < 1.0
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["coeff", "--n", "100000000000000000000", "--k", "1", "--lambda", "1"],
        ["expand", "--n", "40", "--k", "1"],
        ["shard", "--n", "40", "--k", "1", "--shards", "2", "--index", "0"],
        ["admissible", "--n", "3", "--k", "1000000", "--count-only"],
    ],
    ids=["coeff", "expand", "shard", "admissible"],
)
def test_absurd_sizes_are_refused_at_once(args):
    # refused before lambda is padded to n parts or anything is enumerated:
    # under a 1 GB address-space limit, padding to 10^20 parts or listing
    # n = 40 would end in a MemoryError, and counting k = 10^6 would not end
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from vanschur.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=_src_env(), timeout=30)
    assert proc.returncode == 1
    n, k = args[2], args[4]
    assert proc.stderr == (f"error: n={n}, k={k} is beyond the largest cell taken, "
                           f"n <= {cli.MAX_N} and k <= {cli.MAX_K}\n")
    assert float(proc.stdout) < 1.0


def test_the_largest_cell_is_counted_at_once():
    # (16,16) has about 1.7e26 admissible partitions: counted, not walked,
    # in one line within 2 s under a 1 GB address-space limit
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from vanschur.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(sys.argv[1:])\n"
        "print(time.perf_counter() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "admissible", "--n", "16", "--k", "16", "--count-only"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "167386183999301880353063115\n"
    assert float(proc.stderr) < 2.0


@pytest.mark.parametrize("n, k, code", [(16, 16, 0), (17, 1, 1), (1, 17, 1)])
def test_size_limits_take_n_and_k_up_to_16(capsys, n, k, code):
    # room for the (11,1) table and the (13,1) rectangle; an inadmissible
    # lambda shows whether the cell is taken without computing anything
    got, _, err = run_cli(["coeff", "--n", str(n), "--k", str(k), "--lambda", "1"], capsys)
    assert got == code
    assert ("not admissible" if code == 0 else "beyond the largest cell") in err


@pytest.mark.parametrize("out", [False, True])
def test_out_of_memory_is_one_line_with_its_own_exit_code(tmp_path, capsys, monkeypatch, out):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(coefficients, "g_coefficient", exhausted)
    target = tmp_path / "x.jsonl"
    args = ["expand", "--n", "4", "--k", "1"] + (["--out", str(target)] if out else [])
    code, stdout, err = run_cli(args, capsys)
    assert code == cli.MEMORY_EXIT == 3
    assert err == "error: out of memory in expand\n"
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "shards, count, message",
    [
        pytest.param(1, 0, "the shards hold no records, and no admissible table is empty",
                     id="no-records"),
        pytest.param(1, 1, "(n, k) = (40, 1) has more than 1 admissible partitions, "
                           "the shards hold 1 records", id="one-record"),
        pytest.param(10**9, 1, "missing shard index(es) [1, 2, 3, 4, 5] and 999999994 more\n",
                     id="a-billion-shards"),
    ],
)
def test_merge_enumerates_no_more_than_the_shards_can_hold(
    tmp_path, capsys, monkeypatch, shards, count, message
):
    # merge needs every shard before it enumerates, and then the table is
    # exactly the records held, so a manifest claiming n=40 is enumerated no
    # further than one partition beyond its records, whatever shard count it
    # claims
    real = cli.enumerate_admissible
    lam = next(real(40, 1))

    def bounded(n, k):
        for pos, lam in enumerate(real(n, k)):
            if pos == 1000:
                raise AssertionError("merge enumerated past what the shards hold")
            yield lam

    # both enumerators, so that a merge that hashes a second enumeration
    # fails here instead of running for ever
    monkeypatch.setattr(cli, "enumerate_admissible", bounded)
    monkeypatch.setattr("vanschur.records.enumerate_admissible", bounded)
    manifest = {"n": 40, "k": 1, "shards": shards, "index": 0, "count": count,
                "checksum": "x", "layout": "pair-class"}
    records = [ResultRecord(n=40, k=1, lam=lam, coeff=1)] * count
    path = tmp_path / "s.jsonl"
    path.write_text(
        "".join(line + "\n" for line in
                [json.dumps({"manifest": manifest}), *map(record_to_jsonl, records)])
    )
    code, _, err = run_cli(["merge", str(path), "--out", str(tmp_path / "m.jsonl")], capsys)
    assert code == 2
    assert message in err
    assert not (tmp_path / "m.jsonl").exists()


def test_merge_rejects_duplicate_shard(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    code, _, err = run_cli(
        ["merge", str(paths[0]), str(paths[0]), "--out", str(tmp_path / "m.jsonl")],
        capsys,
    )
    assert code == 2
    assert "duplicate" in err
    assert err == "merge failure: duplicate shard index 0\n"
    assert not (tmp_path / "m.jsonl").exists()


def test_merge_rejects_foreign_manifest(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    text = paths[1].read_text().replace('"k":1', '"k":2')
    paths[1].write_text(text)
    code, _, err = run_cli(
        ["merge", *map(str, paths), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert "disagree" in err or "checksum" in err
    assert err == "merge failure: manifests disagree on (n, k, shards, checksum)\n"
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize(
    "lineno,text",
    [
        (2, '{"n":3}'),
        (2, '{"n":4,"k":1,"lambda":5,"coeff":"1"}'),
        (1, '{"manifest":5}'),
        (2, '{"n":4,"k":1,"lambda":[6,4,2,0],"coeff":"abc"}'),
    ],
)
def test_merge_names_file_and_line_of_a_bad_line(tmp_path, capsys, lineno, text):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    lines = paths[1].read_text().splitlines()
    lines[lineno - 1] = text
    paths[1].write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["merge", *map(str, paths), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert f"{paths[1]}:{lineno}:" in err
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("lineno", [1, 2])
def test_merge_refuses_a_deeply_nested_line(tmp_path, capsys, lineno):
    # deeper than the JSON parser recurses: a clean refusal naming the line,
    # not a RecursionError traceback
    (path,) = _write_shards(tmp_path, capsys, 3, 1, 1)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = "[" * 200_000 + "]" * 200_000
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["merge", str(path), "--out", str(tmp_path / "m.jsonl")], capsys)
    assert code == 2
    assert f"merge failure: {path}:{lineno}: ValueError: JSON value nested too deeply" in err
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize(
    "lineno, old, new",
    [
        (2, '"coeff":"1"', '"coeff":1.75'),
        (2, '"coeff":"1"', '"coeff":1'),
        (2, '"coeff":"1"', '"coeff":" 1"'),
        (2, '"coeff":"1"', '"coeff":"1_0"'),
        (2, '"lambda":[4,2,0]', '"lambda":[4.6,2,0]'),
        (2, '"lambda":[4,2,0]', '"lambda":[4,true,0]'),
        (2, '"n":3', '"n":1e400'),
        (2, '"k":1', '"k":true'),
        (1, '"n":3', '"n":1e400'),
        (1, '"k":1', '"k":1.0'),
        (1, '"shards":1', '"shards":true'),
        (1, '"index":0', '"index":0.0'),
        (1, '"count":5', '"count":"5"'),
    ],
)
def test_merge_decodes_only_integers(tmp_path, capsys, lineno, old, new):
    # int() would round a float, take a bool or overflow on 1e400; JSON
    # integers are the only numbers a shard file holds, and a coefficient is
    # a decimal string
    (path,) = _write_shards(tmp_path, capsys, 3, 1, 1)
    lines = path.read_text().splitlines()
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(["merge", str(path), "--out", str(tmp_path / "m.jsonl")], capsys)
    assert code == 2
    assert f"merge failure: {path}:{lineno}:" in err
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("n, k", [(0, 1), (3, 0), (-2, 1)])
def test_merge_refuses_a_manifest_with_nonpositive_n_or_k(tmp_path, capsys, n, k):
    manifest = {"n": n, "k": k, "shards": 1, "index": 0, "count": 0, "checksum": "x",
                "layout": "pair-class"}
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"manifest": manifest}) + "\n")
    code, _, err = run_cli(["merge", str(path), "--out", str(tmp_path / "m.jsonl")], capsys)
    assert code == 2
    assert f"merge failure: {path}:1: ValueError: n and k must be positive" in err
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize("shards,index,flag", [(0, 0, "--shards"), (2, 2, "index")])
def test_shard_rejects_bad_shard_numbers(capsys, shards, index, flag):
    code, _, err = run_cli(
        ["shard", "--n", "3", "--k", "1", "--shards", str(shards), "--index", str(index)],
        capsys,
    )
    assert code == 1
    assert flag in err


def test_shard_index_outside_the_shards_is_one_line_and_no_output(tmp_path, capsys):
    target = tmp_path / "s.jsonl"
    code, out, err = run_cli(["shard", "--n", "3", "--k", "1", "--shards", "2", "--index", "2",
                              "--out", str(target)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: index 2 outside 0..1\n"
    assert list(tmp_path.iterdir()) == []


def test_merge_rejects_tampered_records(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    lines = paths[0].read_text().splitlines()
    lines = [lines[0]] + lines[2:]  # drop one record
    paths[0].write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["merge", *map(str, paths), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert "shard 0" in err
    assert err == (f"merge failure: shard 0 ({paths[0]}) holds {len(lines) - 1} records, "
                   f"its manifest claims {len(lines)}\n")
    assert not (tmp_path / "m.jsonl").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda line: line.replace(',"layout":"pair-class"', ""),
                     "manifest has no layout", id="missing"),
        pytest.param(lambda line: line.replace('"layout":"pair-class"', '"layout":"j-mod-S"'),
                     "unknown shard layout 'j-mod-S'", id="unknown"),
        pytest.param(lambda line: line.replace('"layout":"pair-class"', '"layout":7'),
                     "unknown shard layout 7", id="not-a-string"),
    ],
)
def test_merge_refuses_a_missing_or_unknown_layout(tmp_path, capsys, edit, message):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    lines = paths[1].read_text().splitlines()
    lines[0] = edit(lines[0])
    paths[1].write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["merge", *map(str, paths), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith(f"merge failure: {paths[1]}:1: ValueError: {message}")
    assert not (tmp_path / "m.jsonl").exists()


def _zero_checksum(lines):
    checksum = json.loads(lines[0])["manifest"]["checksum"]
    return [lines[0].replace(checksum, "0" * 64), *lines[1:]]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda lines: [], "{path} is empty", id="empty"),
        pytest.param(lambda lines: lines[1:],
                     "{path}:1: ValueError: shard file does not start with a manifest line",
                     id="no-manifest"),
        pytest.param(_zero_checksum, "checksum does not match the admissible enumeration",
                     id="checksum"),
    ],
)
def test_merge_refuses_an_empty_file_or_a_missing_or_false_manifest(tmp_path, capsys, edit, message):
    (path,) = _write_shards(tmp_path, capsys, 4, 1, 1)
    path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
    code, out, err = run_cli(["merge", str(path), "--out", str(tmp_path / "m.jsonl")], capsys)
    assert code == 2
    assert err == f"merge failure: {message.format(path=path)}\n"
    assert out == ""
    assert not (tmp_path / "m.jsonl").exists()


def test_merge_of_an_unreadable_path_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "missing.jsonl"
    code, out, err = run_cli(["merge", str(path), "--out", str(tmp_path / "m.jsonl")], capsys)
    assert code == 1
    assert err == (f"error: cannot read {path}: "
                   f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{path}'\n")
    assert out == ""
    assert not (tmp_path / "m.jsonl").exists()


def test_merge_skips_blank_lines_between_records(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    plain = tmp_path / "plain.jsonl"
    assert run_cli(["merge", *map(str, paths), "--out", str(plain)], capsys)[0] == 0
    lines = paths[0].read_text().splitlines()
    paths[0].write_text("\n".join([lines[0], lines[1], "", lines[2], " \t", *lines[3:]]) + "\n\n")
    spaced = tmp_path / "spaced.jsonl"
    assert run_cli(["merge", *map(str, paths), "--out", str(spaced)], capsys) == (0, "", "")
    assert spaced.read_bytes() == plain.read_bytes()


def test_verify_reports_an_engine_that_disagrees_with_the_oracle(capsys, monkeypatch):
    real = coefficients.expand
    lam = (4, 2, 0)
    want = real(3, 1).terms[lam]

    def wrong(n, k):
        table = real(n, k)
        return coefficients.SchurExpansion(n, k, {**table.terms, lam: want + 1})

    # the command imports expand when it runs, so it is patched where it lives
    monkeypatch.setattr("vanschur.coefficients.expand", wrong)
    code, out, err = run_cli(["verify", "--n", "3", "--k", "1"], capsys)
    assert code == 2
    assert err == f"mismatch at lambda=[4, 2, 0]: engine {want + 1}, oracle {want}\n"
    assert out == ""


@pytest.mark.parametrize("layout", [None, "pair-class"])
def test_merge_refuses_shards_cut_at_positions_j_mod_s(tmp_path, capsys, layout):
    # the shards of earlier versions: shard j of S held the positions j mod S,
    # under a manifest with no layout. With the layout forged in, the walk
    # finds the records out of place
    n, k, shards = 5, 1, 2
    direct = tmp_path / "direct.jsonl"
    assert run_cli(["expand", "--n", str(n), "--k", str(k), "--out", str(direct)], capsys)[0] == 0
    table = direct.read_text().splitlines()
    checksum = enumeration_checksum(n, k)
    paths = []
    for j in range(shards):
        mine = table[j::shards]
        manifest = {"n": n, "k": k, "shards": shards, "index": j, "count": len(mine),
                    "checksum": checksum}
        if layout is not None:
            manifest["layout"] = layout
        path = tmp_path / f"old{j}.jsonl"
        path.write_text("".join(line + "\n" for line in [json.dumps({"manifest": manifest}), *mine]))
        paths.append(path)
    code, _, err = run_cli(["merge", *map(str, paths), "--out", str(tmp_path / "m.jsonl")], capsys)
    assert code == 2
    assert err.count("\n") == 1
    if layout is None:
        assert err.startswith(f"merge failure: {paths[0]}:1: ValueError: manifest has no layout")
    else:
        assert err.startswith("merge failure: shard ")
        assert err.endswith(" does not match the canonical enumeration\n")
    assert not (tmp_path / "m.jsonl").exists()


SHARDED_CELLS = [(1, 1), (2, 3), (3, 2), (4, 1), (4, 3), (5, 2), (6, 1)]


@pytest.mark.parametrize("n, k", SHARDED_CELLS)
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_shards_partition_the_table_and_keep_complement_pairs_together(
    tmp_path, capsys, n, k, shards
):
    direct = tmp_path / "direct.jsonl"
    assert run_cli(["expand", "--n", str(n), "--k", str(k), "--out", str(direct)], capsys)[0] == 0
    lams = [tuple(json.loads(line)["lambda"]) for line in direct.read_text().splitlines()]
    paths = _write_shards(tmp_path, capsys, n, k, shards)
    shard_of = {}
    for j, path in enumerate(paths):
        held = [tuple(json.loads(line)["lambda"]) for line in path.read_text().splitlines()[1:]]
        # each shard holds its positions in enumeration order
        in_shard = set(held)
        assert held == [lam for lam in lams if lam in in_shard]
        for lam in held:
            assert shard_of.setdefault(lam, j) == j
    assert sorted(shard_of) == sorted(lams)
    top = 2 * k * (n - 1)
    assert all(shard_of[tuple(top - x for x in reversed(lam))] == j
               for lam, j in shard_of.items())
    merged = tmp_path / "merged.jsonl"
    assert run_cli(["merge", *map(str, paths), "--out", str(merged)], capsys)[0] == 0
    assert merged.read_bytes() == direct.read_bytes()


def test_shard_and_merge_load_no_openssl(tmp_path):
    # the checksum uses the interpreter's own SHA-256; hashlib would load
    # _hashlib, and with it OpenSSL
    script = (
        "import sys\n"
        "from vanschur.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))\n"
        "sys.exit(code)\n"
    )
    paths = [tmp_path / f"s{j}.jsonl" for j in range(2)]
    commands = [["shard", "--n", "5", "--k", "1", "--shards", "2", "--index", str(j),
                 "--out", str(path)] for j, path in enumerate(paths)]
    commands.append(["merge", *map(str, paths), "--out", str(tmp_path / "m.jsonl")])
    for command in commands:
        proc = subprocess.run([sys.executable, "-c", script, *command],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", command[0]


records_strategy = st.builds(
    lambda n, lam_head, coeff: ResultRecord(
        n=n, k=1, lam=tuple(sorted(lam_head, reverse=True))[:n], coeff=coeff
    ),
    st.integers(1, 5),
    st.lists(st.integers(0, 9), min_size=5, max_size=5),
    st.integers(-(10**40), 10**40),
)


@given(records_strategy)
def test_record_round_trips(record):
    assert record_from_jsonl(record_to_jsonl(record)) == record
    assert record_from_csv(record_to_csv(record)) == record


@pytest.mark.parametrize(
    "line",
    [
        "3,1,4 1 1,1_0",
        "3,1,4 1 1, 7",
        "3,1,4 1 1,+7",
        "3,1,4 1 1,7 ",
        "3,1,4 1 1,1.5",
        "3,1,4 1 1,\u0667",
        "1_0,1,4 1 1,7",
        " 3,1,4 1 1,7",
        "3,+1,4 1 1,7",
        "3,1,4 1 1_0,7",
        "3,1,4 +1 1,7",
        "3,1,4  1 1,7",
        "3,1, 4 1 1,7",
        "3,1,,7",
        "3,1,4 1 1,",
    ],
)
def test_csv_decodes_only_what_it_writes(line):
    # int() would read each of these; record_to_csv writes none of them
    with pytest.raises(ValueError):
        record_from_csv(line)
    record = ResultRecord(n=3, k=1, lam=(4, 1, 1), coeff=-3)
    assert record_to_csv(record) == "3,1,4 1 1,-3"
    assert record_from_csv("3,1,4 1 1,-3\n") == record


def test_closed_output_pipe_exits_quietly_with_141():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # about 300 kB of output, more than a pipe holds, so the writer is still
    # writing when the reader leaves
    with subprocess.Popen(
        [sys.executable, "-m", "vanschur", "expand", "--n", "8", "--k", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            proc.kill()
    assert first.startswith(b'{"n":8,"k":1,')
    assert err == b""
    assert code == 141


def test_jsonl_and_csv_agree_on_decoded_records(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.csv"
    run_cli(["expand", "--n", "4", "--k", "1", "--out", str(a)], capsys)
    run_cli(["expand", "--n", "4", "--k", "1", "--format", "csv", "--out", str(b)], capsys)
    ra = list(read_records(a.read_text().splitlines(), "jsonl"))
    rb = list(read_records(b.read_text().splitlines(), "csv"))
    assert ra == rb


def test_expand_six_letters_has_no_zero(tmp_path, capsys):
    path = tmp_path / "six.jsonl"
    code, _, _ = run_cli(["expand", "--n", "6", "--k", "1", "--out", str(path)], capsys)
    assert code == 0
    records = [record_from_jsonl(l) for l in path.read_text().splitlines()]
    assert len(records) == 247
    assert all(r.coeff != 0 for r in records)


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "vanschur", "admissible", "--n", "2", "--k", "1",
         "--count-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


# what a command that computes nothing must not load; no package module
# imports fractions, which the test-side dense oracles use
HEAVY_MODULES = ("vanschur.oracle", "fractions", "vanschur.delta_engine",
                 "vanschur.coefficients")
REPORT_LOADED = f"print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))"


def _src_env():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_importing_the_cli_loads_neither_engine_nor_oracles():
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, vanschur.cli; {REPORT_LOADED}"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_oracle_loads_no_engine():
    engine = ("vanschur.coefficients", "vanschur.delta_engine")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, vanschur.oracle; print(sorted(m for m in {engine!r} if m in sys.modules))"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_merge_loads_neither_engine_nor_oracles(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    merged = tmp_path / "m.jsonl"
    # `python -m vanschur merge ...`, reporting what it loaded once it is done
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('vanschur', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"{REPORT_LOADED}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "merge", *map(str, paths), "--out", str(merged)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    direct = tmp_path / "direct.jsonl"
    run_cli(["expand", "--n", "4", "--k", "1", "--out", str(direct)], capsys)
    assert merged.read_bytes() == direct.read_bytes()


# what a frozen dataclass costs every process at start-up, `inspect` most of
# it: no package module loads either
STARTUP_MODULES = ("dataclasses", "inspect")
REPORT_STARTUP = f"print(sorted(m for m in {STARTUP_MODULES!r} if m in sys.modules))"


def test_importing_cli_and_coefficients_loads_no_dataclasses():
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, vanschur.cli, vanschur.coefficients; {REPORT_STARTUP}"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_expand_loads_no_dataclasses(tmp_path):
    out = tmp_path / "e.jsonl"
    # `python -m vanschur expand --n 4 --k 1`, reporting what it loaded
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('vanschur', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        f"{REPORT_STARTUP}\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "expand", "--n", "4", "--k", "1", "--out", str(out)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert len(out.read_text().splitlines()) == 16


def test_grid_exits_quietly_with_141_on_a_closed_pipe():
    # the default grid evaluates its tables for seconds, so rows are still to
    # come when the reader leaves after the header (admissible counts alone
    # are all written within milliseconds, before the reader may have left)
    with subprocess.Popen(
        [sys.executable, "-m", "vanschur", "grid"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        finally:
            proc.kill()
    assert first.split() == [b"k", b"n", b"admissible", b"vanishing", b"seconds"]
    assert err == b""
    assert code == 141


def test_grid_rejects_zero_jobs(capsys):
    code, out, err = run_cli(["grid", "--jobs", "0"], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "vanschur grid: error: argument --jobs: must be >= 1, got 0"


@pytest.mark.parametrize(
    "value, message",
    [
        ("12", "must be between 2 and 11, got 12"),
        ("1", "must be between 2 and 11, got 1"),
        ("\u0663", "not a decimal integer: '\u0663'"),
    ],
    ids=["12", "1", "arabic-indic-3"],
)
def test_grid_rejects_a_bad_nmax_k1(capsys, value, message):
    code, out, err = run_cli(["grid", "--count-only", "--nmax-k1", value], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"vanschur grid: error: argument --nmax-k1: {message}"


def _grid_rows(out):
    """The k, n, admissible and vanishing columns of each row below the header."""
    lines = out.splitlines()
    assert lines[0] == " k   n   admissible  vanishing   seconds"
    return [tuple(line.split()[:4]) for line in lines[1:]]


def test_grid_count_only_reaches_eleven_letters(capsys):
    code, out, err = run_cli(["grid", "--count-only", "--nmax-k1", "11"], capsys)
    assert (code, err) == (0, "")
    rows = _grid_rows(out)
    assert len(rows) == 26
    assert [r[1] for r in rows[:10]] == [str(n) for n in range(2, 12)]
    assert rows[6] == ("1", "8", "5302", "-")
    assert rows[8] == ("1", "10", "135670", "-")
    assert {r[3] for r in rows} == {"-"}


def test_grid_counts_vanishing_coefficients(capsys, monkeypatch):
    # the (8,1) and (5,3) tables hold 8 and 2 vanishing coefficients
    monkeypatch.setattr(cli, "DEFAULT_GRID", {1: range(2, 3), 3: range(5, 6)})
    code, out, err = run_cli(["grid", "--jobs", "2"], capsys)
    assert (code, err) == (0, "")
    assert _grid_rows(out) == [
        ("1", "2", "2", "0"), ("1", "3", "5", "0"), ("1", "4", "16", "0"),
        ("1", "5", "59", "0"), ("1", "6", "247", "0"), ("1", "7", "1111", "0"),
        ("1", "8", "5302", "8"), ("3", "5", "2131", "2"),
    ]


def test_out_of_memory_in_grid_is_one_line_with_its_own_exit_code(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(coefficients, "count_vanishing", exhausted)
    code, out, err = run_cli(["grid"], capsys)
    assert code == cli.MEMORY_EXIT == 3
    assert err == "error: out of memory in grid\n"
    assert len(out.splitlines()) == 1


def test_expand_unwritable_output_is_io_error(tmp_path, capsys, monkeypatch):
    # the output is opened before any coefficient is computed
    def never(*args, **kwargs):
        raise AssertionError("iter_terms ran before the output was opened")

    # the command imports iter_terms when it runs, so it is patched where it
    # lives
    monkeypatch.setattr("vanschur.coefficients.iter_terms", never)
    code, _, err = run_cli(
        ["expand", "--n", "2", "--k", "1", "--out", str(tmp_path / "no" / "dir.jsonl")],
        capsys,
    )
    assert code == 1
    assert "cannot open output" in err


@pytest.mark.parametrize("args", [["expand", "--n", "3", "--k", "1"],
                                  ["shard", "--n", "3", "--k", "1", "--shards", "2", "--index", "0"]],
                         ids=["expand", "shard"])
def test_output_to_a_directory_is_one_line_and_no_output(tmp_path, capsys, args):
    code, out, err = run_cli([*args, "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: cannot open output {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_neither_target_nor_temp_file(tmp_path, capsys, monkeypatch):
    def failing(records, fmt, exc):
        yield "partial line\n"
        raise exc

    target = tmp_path / "x.jsonl"
    args = ["expand", "--n", "3", "--k", "1", "--out", str(target)]
    monkeypatch.setattr(
        cli, "write_records", lambda r, f: failing(r, f, OSError(errno.ENOSPC, "disk full"))
    )
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "disk full" in err
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(cli, "write_records", lambda r, f: failing(r, f, KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(args)
    assert list(tmp_path.iterdir()) == []


def test_expand_writes_through_to_a_pipe(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, _, _ = run_cli(["expand", "--n", "2", "--k", "1", "--out", str(fifo)], capsys)
    reader.join(timeout=30)
    assert code == 0 and not reader.is_alive()
    assert got == [
        b'{"n":2,"k":1,"lambda":[2,0],"coeff":"1"}\n'
        b'{"n":2,"k":1,"lambda":[1,1],"coeff":"-3"}\n'
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_expand_writes_through_a_symlink_and_keeps_the_mode(tmp_path, capsys):
    real = tmp_path / "data" / "x.jsonl"
    real.parent.mkdir()
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    code, _, _ = run_cli(["expand", "--n", "2", "--k", "1", "--out", str(link)], capsys)
    assert code == 0
    assert link.is_symlink() and link.resolve() == real
    assert real.read_bytes() == (
        b'{"n":2,"k":1,"lambda":[2,0],"coeff":"1"}\n'
        b'{"n":2,"k":1,"lambda":[1,1],"coeff":"-3"}\n'
    )
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in real.parent.iterdir()) == ["x.jsonl"]
