import errno
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given
import hypothesis.strategies as st

from vanschur import cli
from vanschur.cli import main
from vanschur.records import (
    ResultRecord,
    read_records,
    record_from_csv,
    record_from_jsonl,
    record_to_csv,
    record_to_jsonl,
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

    monkeypatch.setattr(cli, "expand", never)
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


def test_expand_jobs_do_not_change_bytes(tmp_path, capsys):
    outputs = []
    for jobs in (1, 2):
        path = tmp_path / f"out{jobs}.jsonl"
        code, _, _ = run_cli(
            ["expand", "--n", "4", "--k", "2", "--jobs", str(jobs), "--out", str(path)],
            capsys,
        )
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


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
    assert "missing shard index(es) [0]" in err
    assert "62 missing of 247" in err


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


@pytest.mark.parametrize(
    "shards, count, message",
    [
        (1, 0, "(n, k) = (40, 1) has more than 0 admissible partitions"),
        (10**9, 1, "and 999999994 more: at least 3 missing of more than 3"),
    ],
)
def test_merge_enumerates_no_more_than_the_shards_can_hold(
    tmp_path, capsys, monkeypatch, shards, count, message
):
    # a shard holds at most count * shards + index records, and no more than
    # one beyond any other, so a manifest claiming n=40 is enumerated only as
    # far as its few records can account for, whatever shard count it claims
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
                "checksum": "x"}
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


def test_merge_rejects_foreign_manifest(tmp_path, capsys):
    paths = _write_shards(tmp_path, capsys, 4, 1, 2)
    text = paths[1].read_text().replace('"k":1', '"k":2')
    paths[1].write_text(text)
    code, _, err = run_cli(
        ["merge", *map(str, paths), "--out", str(tmp_path / "m.jsonl")], capsys
    )
    assert code == 2
    assert "disagree" in err or "checksum" in err


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
    manifest = {"n": n, "k": k, "shards": 1, "index": 0, "count": 0, "checksum": "x"}
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


def test_run_tables_rejects_zero_jobs():
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_tables.py")
    proc = subprocess.run(
        [sys.executable, script, "--jobs", "0"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "--jobs must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["--extended", "--nmax-k1", "12"], "--nmax-k1 must be between 2 and 11, got 12"),
        (["--extended", "--nmax-k1", "1"], "--nmax-k1 must be between 2 and 11, got 1"),
        (["--nmax-k1", "9"], "--nmax-k1 needs --extended"),
    ],
)
def test_run_tables_rejects_a_bad_nmax_k1(args, message):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_tables.py")
    proc = subprocess.run(
        [sys.executable, script, "--counts-only", *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_expand_unwritable_output_is_io_error(tmp_path, capsys, monkeypatch):
    # the output is opened before any coefficient is computed
    def never(*args, **kwargs):
        raise AssertionError("expand ran before the output was opened")

    monkeypatch.setattr(cli, "expand", never)
    code, _, err = run_cli(
        ["expand", "--n", "2", "--k", "1", "--out", str(tmp_path / "no" / "dir.jsonl")],
        capsys,
    )
    assert code == 1
    assert "cannot open output" in err


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
