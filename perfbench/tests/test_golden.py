"""The golden checker flags every planted fault and passes clean output."""

import pyarrow as pa
import pytest

import corpora
import golden


@pytest.fixture(scope="module")
def want():
    b = corpora._build_shard("text-only", 7, 0, 40)
    return b.golden_table()


def as_output(tbl: pa.Table) -> pa.Table:
    return tbl.append_column("n_errors", pa.array([0] * tbl.num_rows, pa.int32()))


def multi_span_row(tbl: pa.Table) -> int:
    """A doc with at least two spans of different text."""
    for i, spans in enumerate(tbl["spans"].to_pylist()):
        if len({s["text"] for s in spans}) >= 2:
            return i
    raise AssertionError("corpus has no multi-span doc")


def replace_row(tbl: pa.Table, i: int, row: dict) -> pa.Table:
    rows = tbl.to_pylist()
    rows[i] = row
    return pa.Table.from_pylist(rows, schema=tbl.schema)


def test_clean_output_passes(want):
    res = golden.check(as_output(want), want)
    assert res["attempted"] == want.num_rows
    assert res["failed"] == []


def test_swapped_spans_flagged(want):
    out = as_output(want)
    i = multi_span_row(want)
    row = out.slice(i, 1).to_pylist()[0]
    a, b = row["spans"][0], row["spans"][1]
    a["offset"], b["offset"] = b["offset"], a["offset"]
    res = golden.check(replace_row(out, i, row), want)
    assert res["failed"] == [row["doc_id"]]
    assert res["reasons"] == {"spans": 1}


def test_dropped_doc_flagged(want):
    out = as_output(want).slice(1)
    res = golden.check(out, want)
    assert res["failed"] == [want["doc_id"][0].as_py()]
    assert res["reasons"] == {"missing": 1}


def test_duplicated_row_flagged(want):
    out = as_output(want)
    out = pa.concat_tables([out, out.slice(3, 1)])
    res = golden.check(out, want)
    assert res["failed"] == [want["doc_id"][3].as_py()]
    assert res["reasons"] == {"duplicated": 1}


def test_altered_transcribed_flagged(want):
    out = as_output(want)
    row = out.slice(5, 1).to_pylist()[0]
    row["transcribed"] += " x"
    res = golden.check(replace_row(out, 5, row), want)
    assert res["failed"] == [row["doc_id"]]
    assert res["reasons"] == {"transcribed": 1}


def test_region_errors_and_unknown_docs_flagged(want):
    out = as_output(want)
    row = out.slice(2, 1).to_pylist()[0]
    row["n_errors"] = 1
    out = replace_row(out, 2, row)
    extra = out.slice(0, 1).to_pylist()[0]
    extra["doc_id"] = "not-in-golden"
    out = pa.concat_tables([out, pa.Table.from_pylist([extra], schema=out.schema)])
    res = golden.check(out, want)
    assert sorted(res["failed"]) == sorted([row["doc_id"], "not-in-golden"])
    assert res["reasons"] == {"errors": 1, "unexpected": 1}
