"""Golden end-to-end tests: the north-rule invariant.

Runs the full Ray Data pipeline over the deterministic synthetic corpus and
asserts per-row span-sequence equality on (kind, text, media_ref, order)
against the generator's golden outputs, plus the derived combined/transcribed
columns (BASELINE.json input_hint / north_rule)."""

import pyarrow as pa
import pytest

import ray
from norsk_historisk_avis_ocr_ray.pipelines.extract import extract
from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus

N_DOCS = 60


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(N_DOCS, seed=42)


def run_extract(corpus, **kwargs):
    docs = ray.data.from_arrow(corpus["documents"])
    out = extract(docs, corpus["pages"], **kwargs)
    tbl = pa.Table.from_pandas(out.to_pandas())
    return {r["doc_id"]: r for r in tbl.to_pylist()}


def span_key(spans):
    # the invariant tuple: (kind, text, media_ref, order-by-offset)
    return [(s["kind"], s["text"], s["media_ref"])
            for s in sorted(spans, key=lambda s: s["offset"])]


def test_golden_span_sequence_equality(corpus):
    got = run_extract(corpus)
    golden = {r["doc_id"]: r for r in corpus["golden"].to_pylist()}
    assert set(got) == set(golden)
    mismatches = []
    for doc_id, g in golden.items():
        if span_key(got[doc_id]["spans"]) != span_key(g["spans"]):
            mismatches.append(doc_id)
    assert mismatches == [], (
        f"{len(mismatches)} docs mismatch, first: "
        f"{got[mismatches[0]]['spans']} != {golden[mismatches[0]]['spans']}"
    )


def test_golden_combined_and_transcribed(corpus):
    got = run_extract(corpus)
    for g in corpus["golden"].to_pylist():
        r = got[g["doc_id"]]
        assert r["combined"] == g["combined"], g["doc_id"]
        assert r["transcribed"] == g["transcribed"], g["doc_id"]


def test_no_errors_on_clean_corpus(corpus):
    got = run_extract(corpus)
    assert all(r["n_errors"] == 0 for r in got.values())


def test_missing_media_ref_is_row_error_not_abort():
    docs = ray.data.from_arrow(pa.Table.from_pylist([{
        "doc_id": "d0",
        "spans": [{"kind": "media", "text": "", "media_ref": "nope", "offset": 0}],
    }]))
    out = extract(docs, None).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["n_errors"] == 1
    spans = out.iloc[0]["spans"]
    assert len(spans) == 1 and spans[0]["text"] == ""


def test_empty_doc_roundtrip():
    from norsk_historisk_avis_ocr_ray.schema import DOCUMENTS_SCHEMA
    docs = ray.data.from_arrow(pa.Table.from_pylist(
        [{"doc_id": "d0", "spans": []}], schema=DOCUMENTS_SCHEMA))
    out = extract(docs, None).to_pandas()
    assert len(out) == 1
    assert list(out.iloc[0]["spans"]) == []
    assert out.iloc[0]["combined"] == ""
