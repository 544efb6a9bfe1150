"""The record codec against the json-based one in tests/reference.py: the
same bytes, the same records, and the same refusals."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given

from reference import (
    enumerate_admissible_reference,
    enumeration_checksum_reference,
    record_from_csv_reference,
    record_from_jsonl_reference,
    record_to_csv_reference,
    record_to_jsonl_reference,
)
from vanschur import records as records_module
from vanschur.records import (
    LAYOUT,
    ResultRecord,
    ShardManifest,
    enumeration_checksum,
    manifest_from_jsonl,
    manifest_to_jsonl,
    record_from_csv,
    record_from_jsonl,
    record_to_csv,
    record_to_jsonl,
    write_records,
)

# beyond 64 bits either way, and the small values around 0
coefficients = st.one_of(st.integers(-(10**40), 10**40), st.integers(-3, 3))


@st.composite
def records(draw):
    n = draw(st.integers(1, 7))
    parts = draw(st.lists(st.integers(0, 30), max_size=n))
    return ResultRecord(
        n=n,
        k=draw(st.integers(-2, 4)),
        lam=sorted(parts, reverse=True),
        coeff=draw(coefficients),
    )


@given(st.lists(records(), max_size=5))
def test_encoding_is_byte_identical_and_round_trips(recs):
    for fmt, reference, decode in [
        ("jsonl", record_to_jsonl_reference, record_from_jsonl),
        ("csv", record_to_csv_reference, record_from_csv),
    ]:
        lines = list(write_records(recs, fmt))
        assert lines == [reference(r) + "\n" for r in recs]
        assert [decode(line) for line in lines] == recs
    for r in recs:
        assert record_to_jsonl(r) == record_to_jsonl_reference(r)
        assert record_to_csv(r) == record_to_csv_reference(r)


def outcome(decode, line):
    """The record a decoder gives, or the type of the exception it refuses with."""
    try:
        return decode(line)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc)


# A line is a well-formed record, reformatted as JSON allows, with at most one
# fault: a field or lambda part that int() would take but a shard file never
# holds, a missing key, space json.loads does not skip, trailing data or a
# value that is no record at all. Faults come in half the lines.
not_ints = st.sampled_from([True, False, 1.0, 4.6, -0.0, 1e300, None, "7", [], {}])
decimal_texts = st.integers(-(10**30), 10**30).map(str)
# what int() reads and record_to_* never writes
bad_texts = st.sampled_from(
    ["1_0", " 7", "7 ", "+7", "\u0667", "1.5", "", "-", "--1", "0x10", "1e3", "7\n"]
)
any_values = st.one_of(not_ints, bad_texts, decimal_texts, st.integers(-2, 9))
FAULTS = [None] * 6 + ["field", "part", "missing", "space", "trailer", "body"]


@st.composite
def good_records(draw):
    n = draw(st.integers(1, 6))
    lam = sorted(draw(st.lists(st.integers(0, 9), max_size=n)), reverse=True)
    return n, draw(st.integers(-2, 4)), lam, draw(decimal_texts)


@st.composite
def jsonl_lines(draw):
    n, k, lam, coeff = draw(good_records())
    obj = {"n": n, "k": k, "lambda": lam, "coeff": coeff}
    fault = draw(st.sampled_from(FAULTS))
    if fault == "field":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(any_values)
    elif fault == "part":
        lam.insert(draw(st.integers(0, len(lam))), draw(st.one_of(not_ints, st.integers(-2, 9))))
    elif fault == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    if draw(st.booleans()):
        obj["extra"] = draw(any_values)
    keys = draw(st.permutations(sorted(obj)))
    body = json.dumps(
        {key: obj[key] for key in keys},
        separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])),
    )
    if fault == "body":
        body = draw(st.sampled_from(["[]", "7", '"x"', "null", "[1,2]", "{", ""]))
    # json.loads skips " \t\n\r" around a value, and no other space
    space = st.sampled_from(["", " ", "\t", "\r\n "])
    lead, trail = draw(space), draw(space)
    if fault == "space":
        lead = draw(st.sampled_from(["\f", "\xa0", "\v", "\ufeff"]))
    if fault == "trailer":
        trail += draw(st.sampled_from(["x", " 1", "{}", ",", "\xa0"]))
    return lead + body + trail


@given(jsonl_lines())
def test_jsonl_decoder_accepts_and_refuses_what_the_reference_does(line):
    assert outcome(record_from_jsonl, line) == outcome(record_from_jsonl_reference, line)


@st.composite
def csv_lines(draw):
    n, k, lam, coeff = draw(good_records())
    fields = [str(n), str(k), [str(x) for x in lam or [0]], coeff]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "field":
        # n stays small: a record is padded to n parts, by both decoders
        slot = draw(st.integers(0, 3))
        fields[slot] = draw(st.one_of(bad_texts, st.sampled_from(["007", "-0", "-1", "0"])
                                      if slot == 0 else decimal_texts))
    elif fault == "part":
        fields[2].insert(draw(st.integers(0, len(fields[2]))),
                         draw(st.one_of(bad_texts, st.integers(-2, 9).map(str))))
    elif fault == "missing":
        del fields[draw(st.integers(0, 3))]
    elif fault == "body":
        fields.append(draw(st.sampled_from(["", "7", "x"])))
    line = ",".join(" ".join(f) if isinstance(f, list) else f for f in fields)
    if draw(st.booleans()):
        line += draw(st.sampled_from(["\n", "\n\n"]))
    if fault == "space":
        line = draw(st.sampled_from([" ", "\t"])) + line
    if fault == "trailer":
        line += draw(st.sampled_from([" ", ",", "\r", "\r\n", "x"]))
    return line


@given(csv_lines())
def test_csv_decoder_accepts_and_refuses_what_the_reference_does(line):
    assert outcome(record_from_csv, line) == outcome(record_from_csv_reference, line)


@pytest.mark.parametrize(
    "line",
    [
        '{"n":3,"k":1,"lambda":[4,1,1],"coeff":"-3"} x',
        '{"n":3,"k":1,"lambda":[4,1,1],"coeff":"-3"}{}',
        '{"n":true,"k":1,"lambda":[4,1,1],"coeff":"-3"}',
        '{"n":3,"k":1,"lambda":[4,1,true],"coeff":"-3"}',
        '{"n":3,"k":1.0,"lambda":[4,1,1],"coeff":"-3"}',
        '{"n":3,"k":1,"lambda":[4,1.5,1],"coeff":"-3"}',
        '{"n":3,"k":1,"lambda":[4,1,1],"coeff":"1_0"}',
        '{"n":3,"k":1,"lambda":[4,1,1],"coeff":" 7"}',
        '{"n":3,"k":1,"lambda":[4,1,1],"coeff":"+7"}',
        '{"n":3,"k":1,"lambda":[4,1,1],"coeff":-3}',
        '{"n":3,"k":1,"lambda":"4 1 1","coeff":"-3"}',
        '{"n":3,"k":1,"lambda":{"0":4},"coeff":"-3"}',
        '{"n":3,"k":1,"lambda":[1,4,1],"coeff":"-3"}',
        '{"n":2,"k":1,"lambda":[4,1,1],"coeff":"-3"}',
        '{"n":3,"k":1,"lambda":[4,1,-1],"coeff":"-3"}',
        '{"n":3,"k":1,"lambda":[4,1,1]}',
        '["n",3]',
        "[" * 100_000 + "]" * 100_000,
    ],
)
def test_jsonl_refusals(line):
    with pytest.raises((ValueError, KeyError, TypeError)):
        record_from_jsonl(line)


def test_a_record_takes_a_list_of_ints_and_refuses_other_parts():
    assert ResultRecord(n=3, k=1, lam=[4, 1], coeff=3).lam == (4, 1, 0)
    assert ResultRecord(n=3, k=1, lam=[4, 1], coeff=3) == ResultRecord(3, 1, (4, 1, 0), 3)
    # int() would store (4, 1, 0) for each
    for lam in [[4.7, 1], [4, True], ["4", "1"]]:
        with pytest.raises(ValueError, match="is not an int"):
            ResultRecord(n=3, k=1, lam=lam, coeff=3)


def test_an_unknown_format_is_refused_with_or_without_records():
    for recs in ([], [ResultRecord(n=2, k=1, lam=(2, 0), coeff=1)]):
        with pytest.raises(KeyError, match="xml"):
            list(write_records(recs, "xml"))


def test_jsonl_keeps_what_json_loads_accepts():
    want = ResultRecord(n=4, k=1, lam=(4, 1, 1), coeff=-3)
    for line in [
        '{"n":4,"k":1,"lambda":[4,1,1],"coeff":"-3"}',
        ' \t{"coeff": "-3", "lambda": [4, 1, 1, 0], "k": 1, "n": 4, "x": [1.5]}\r\n ',
        '{"n":4,"k":1,"lambda":[4,1,1],"coeff":"-3","n":4}',
    ]:
        record = record_from_jsonl(line)
        assert record == want == record_from_jsonl_reference(line)
        assert type(record.lam) is tuple


@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (4, 1), (5, 2), (8, 1)])
def test_checksum_matches_one_update_per_partition(n, k):
    lams = list(enumerate_admissible_reference(n, k))
    want = enumeration_checksum_reference(n, k, lams)
    assert enumeration_checksum(n, k) == want
    assert enumeration_checksum(n, k, lams) == want
    assert enumeration_checksum(n, k, []) == enumeration_checksum_reference(n, k, [])


def test_checksum_is_the_built_in_sha256():
    # the interpreter's own module, so that shard and merge load no OpenSSL;
    # the digest is hashlib's (test_checksum_matches_one_update_per_partition)
    assert records_module._sha256().__module__ in ("_sha2", "_sha256")


def test_manifest_layout_round_trips_and_defaults():
    manifest = ShardManifest(n=3, k=1, shards=2, index=1, count=3, checksum="x")
    assert manifest.layout == LAYOUT
    line = manifest_to_jsonl(manifest)
    assert json.loads(line)["manifest"]["layout"] == LAYOUT
    assert manifest_from_jsonl(line) == manifest
