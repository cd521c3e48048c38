"""The join pipeline (also on a starved or busy session) and the
shard-local pipeline must produce the golden span sequences, and all paths
must agree span for span."""

import pyarrow as pa
import pytest

import ray
from norsk_historisk_avis_ocr_ray.pipelines.extract import extract
from norsk_historisk_avis_ocr_ray.pipelines.sharded import extract_sharded
from norsk_historisk_avis_ocr_ray.synth.corpus import write_corpus

N_DOCS = 40


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(d, N_DOCS, seed=7, n_doc_files=4)
    return d


def golden_map(corpus_dir):
    import pyarrow.parquet as pq
    g = pq.read_table(f"{corpus_dir}/golden.parquet")
    return {r["doc_id"]: r for r in g.to_pylist()}


def span_key(spans):
    return [(s["kind"], s["text"], s["media_ref"])
            for s in sorted(spans, key=lambda s: s["offset"])]


def check(out_ds, corpus_dir):
    got = {r["doc_id"]: r for r in
           pa.Table.from_pandas(out_ds.to_pandas()).to_pylist()}
    golden = golden_map(corpus_dir)
    assert set(got) == set(golden)
    for doc_id, g in golden.items():
        assert span_key(got[doc_id]["spans"]) == span_key(g["spans"]), doc_id
        assert got[doc_id]["combined"] == g["combined"], doc_id
        assert got[doc_id]["transcribed"] == g["transcribed"], doc_id


def _docs_pages(corpus_dir):
    import pyarrow.parquet as pq
    docs = ray.data.read_parquet(f"{corpus_dir}/documents")
    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    return docs, pages


def test_dataflow_mode(corpus_dir):
    # one in-memory pages table is one block: it must still be spread over
    # more than one OCR task
    import re

    docs, pages = _docs_pages(corpus_dir)
    out = extract(docs, pages).materialize()
    n = re.search(r"MapBatches\(LayoutOcrStage\): (\d+) tasks executed",
                  out.stats())
    assert n and int(n.group(1)) > 1, out.stats()
    check(out, corpus_dir)


def test_page_ocr_batch_matches_stage(corpus_dir):
    # the Ray stage == the page kernel, for class factories and partials
    # alike — no Ray involved
    from functools import partial

    import pyarrow.parquet as pq
    from norsk_historisk_avis_ocr_ray.stages.ocr import (
        PAGE_COLUMNS, LayoutOcrStage, MockBarcodeOcr, ocr_pages)

    t = pq.read_table(f"{corpus_dir}/pages.parquet", columns=PAGE_COLUMNS)
    want = ocr_pages(t, MockBarcodeOcr())
    assert LayoutOcrStage(MockBarcodeOcr)(t).equals(want)
    assert LayoutOcrStage(partial(MockBarcodeOcr))(t).equals(want)


def test_engine_cache_tells_same_named_factories_apart(corpus_dir):
    # two lambdas from one maker (or two partials of one class) share a
    # qualified name and differ only in their closure cell (or argument):
    # each must get its own engine, in process and in reused Ray workers
    from functools import partial

    import pyarrow.parquet as pq
    from norsk_historisk_avis_ocr_ray.stages.ocr import (
        PAGE_COLUMNS, LayoutOcrStage, cached_engine)

    class FixedText:  # defined here so cloudpickle ships it by value
        def __init__(self, text):
            self.text = text

        def load(self):
            pass

        def ocr_region(self, img, **_):
            return self.text

    def lambda_of(text):
        return lambda: FixedText(text)

    pages = pq.read_table(f"{corpus_dir}/pages.parquet",
                          columns=PAGE_COLUMNS).slice(0, 2)

    def texts(factory):
        return set(ray.data.from_arrow(pages)
                   .map_batches(LayoutOcrStage(factory),
                                batch_format="pyarrow", batch_size=None)
                   .to_pandas()["text"])

    for make in (lambda_of, partial(partial, FixedText)):
        fa, fb = make("a"), make("b")
        assert cached_engine(fa).text == "a"
        assert cached_engine(fb).text == "b"
        assert texts(fa) == {"a"}
        assert texts(fb) == {"b"}


def test_dataflow_finishes_with_one_free_cpu(corpus_dir):
    # an actor holds 3 of the session's 4 CPUs for the whole run: the read,
    # OCR, join and repack tasks must share the one CPU left, not stall; a
    # stall fails the deadline instead of hanging
    import threading

    @ray.remote(num_cpus=3)
    class Hog:
        def ready(self):
            return True

    hog = Hog.remote()
    done = {}
    try:
        ray.get(hog.ready.remote())
        docs, pages = _docs_pages(corpus_dir)
        out = extract(docs, pages)
        t = threading.Thread(
            target=lambda: done.setdefault("rows", out.to_pandas()), daemon=True)
        t.start()
        t.join(timeout=120)
    finally:
        ray.kill(hog)
    assert "rows" in done, "pipeline stalled"
    check(ray.data.from_pandas(done["rows"]), corpus_dir)


def test_sharded(corpus_dir, tmp_path):
    # shard-local layout: pages must be a co-partitioned directory; the test
    # corpus has one pages file — split the documents into two shards by
    # doc_id (duplicates stay together), each with every page; two shards are
    # fewer than 4 per CPU, so each is its own group: one block at the source,
    # one task per shard and no Repartition barrier
    import os
    import re

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    d = str(tmp_path / "copart")
    os.makedirs(f"{d}/pages")
    os.makedirs(f"{d}/documents")
    docs = pq.read_table(f"{corpus_dir}/documents")
    ids = sorted(set(docs["doc_id"].to_pylist()))
    first = pc.is_in(docs["doc_id"], pa.array(ids[: len(ids) // 2]))
    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    for i, part in enumerate((docs.filter(first),
                              docs.filter(pc.invert(first)))):
        pq.write_table(part, f"{d}/documents/part-{i:04d}.parquet")
        pq.write_table(pages, f"{d}/pages/part-{i:04d}.parquet")
    out = extract_sharded(d).materialize()
    stats = out.stats()
    assert "Repartition" not in stats, stats
    n = re.search(r"MapBatches\(fn\): (\d+) tasks executed", stats)
    assert n and int(n.group(1)) == 2, stats
    check(out, corpus_dir)


def test_sharded_deals_shards_into_four_groups_per_cpu(corpus_dir, tmp_path):
    # 20 shards, each with only the pages its documents reference, on the
    # session's 4 CPUs: more shards than 4 per CPU, so they are dealt into 16
    # groups of shards, one task each, and every document still comes out once
    import os
    import re
    from collections import Counter

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    d = str(tmp_path / "copart")
    os.makedirs(f"{d}/pages")
    os.makedirs(f"{d}/documents")
    docs = pq.read_table(f"{corpus_dir}/documents")
    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    ids = sorted(set(docs["doc_id"].to_pylist()))
    for i in range(20):
        part = docs.filter(pc.is_in(docs["doc_id"], pa.array(ids[i::20])))
        refs = {s["media_ref"] for spans in part["spans"].to_pylist()
                for s in spans if s["media_ref"]}
        pq.write_table(part, f"{d}/documents/part-{i:04d}.parquet")
        pq.write_table(pages.filter(pc.is_in(pages["media_ref"],
                                             pa.array(sorted(refs), pa.string()))),
                       f"{d}/pages/part-{i:04d}.parquet")
    out = extract_sharded(d).materialize()
    stats = out.stats()
    n = re.search(r"MapBatches\(fn\): (\d+) tasks executed", stats)
    assert n and int(n.group(1)) == 16, stats
    seen = Counter(out.to_pandas()["doc_id"])
    assert set(seen) == set(ids) and set(seen.values()) == {1}
    check(out, corpus_dir)


def _copart(corpus_dir, d, docs):
    """Single-shard co-partitioned copy of ``docs`` + the corpus pages."""
    import os
    import pyarrow.parquet as pq
    os.makedirs(f"{d}/pages")
    os.makedirs(f"{d}/documents")
    pq.write_table(docs, f"{d}/documents/part-0000.parquet")
    pq.write_table(pq.read_table(f"{corpus_dir}/pages.parquet"),
                   f"{d}/pages/part-0000.parquet")
    return d


def _rows(ds):
    return sorted(pa.Table.from_pandas(ds.to_pandas()).to_pylist(),
                  key=lambda r: r["doc_id"])


def test_span_semantics_agree_across_paths(corpus_dir, tmp_path):
    # non-media spans become plain text regions with no media_ref on every
    # path — including a text span that names a page of the pages table
    import pyarrow.parquet as pq
    from norsk_historisk_avis_ocr_ray.schema import DOCUMENTS_SCHEMA

    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    refs = pages["media_ref"].to_pylist()
    pages = pages.set_column(pages.schema.get_field_index("media_ref"),
                             "media_ref", pa.array(["page-7"] + refs[1:]))
    docs = pa.Table.from_pylist([
        {"doc_id": "d-text-ref", "spans": [
            {"kind": "text", "text": "hello", "media_ref": "page-7", "offset": 0},
            {"kind": "caption", "text": "odd kind", "media_ref": "", "offset": 1},
            {"kind": None, "text": "no kind", "media_ref": None, "offset": 2},
        ]},
        {"doc_id": "d-empty", "spans": []},
    ], schema=DOCUMENTS_SCHEMA)
    d = _copart(corpus_dir, str(tmp_path / "copart"), docs)
    pq.write_table(pages, f"{d}/pages/part-0000.parquet")

    sharded = _rows(extract_sharded(d))
    joined = _rows(extract(ray.data.from_arrow(docs), pages))
    text_only = _rows(extract(ray.data.from_arrow(docs), None))
    assert sharded == joined == text_only
    spans = sharded[1]["spans"]
    assert [(s["text"], s["media_ref"]) for s in spans] == [
        ("hello", ""), ("odd kind", ""), ("no kind", "")]
    assert sharded[0]["spans"] == [] and sharded[0]["n_errors"] == 0


def test_missing_page_is_a_row_error_on_every_path(corpus_dir, tmp_path):
    import pyarrow.parquet as pq
    from norsk_historisk_avis_ocr_ray.schema import DOCUMENTS_SCHEMA

    docs = pa.Table.from_pylist([{"doc_id": "d-missing", "spans": [
        {"kind": "media", "text": "", "media_ref": "no-such-page", "offset": 0},
        {"kind": "text", "text": "kept", "media_ref": "", "offset": 1},
    ]}], schema=DOCUMENTS_SCHEMA)
    d = _copart(corpus_dir, str(tmp_path / "copart"), docs)
    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    for rows in (_rows(extract_sharded(d)),
                 _rows(extract(ray.data.from_arrow(docs), pages)),
                 _rows(extract(ray.data.from_arrow(docs), None))):
        assert rows[0]["n_errors"] == 1
        assert [s["text"] for s in rows[0]["spans"]] == ["", "kept"]


def test_unknown_media_resolution_raises(corpus_dir):
    docs, pages = _docs_pages(corpus_dir)
    with pytest.raises(ValueError, match="media_resolution"):
        extract(docs, pages, media_resolution="broadcast")


def test_zero_row_pages_make_every_media_span_missing(corpus_dir):
    # a pages input with no rows: every media span is a MissingMedia row
    # error, exactly as with no pages at all
    docs, pages = _docs_pages(corpus_dir)
    got = _rows(extract(docs, pages.slice(0, 0)))
    assert got == _rows(extract(docs, None))
    assert sum(r["n_errors"] for r in got) > 0


def test_zero_row_documents_give_zero_rows(corpus_dir, tmp_path):
    # no span batch reaches the join's left side at all
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{corpus_dir}/documents").slice(0, 0)
    pq.write_table(docs, str(tmp_path / "docs.parquet"))
    _, pages = _docs_pages(corpus_dir)
    out = extract(ray.data.read_parquet(str(tmp_path / "docs.parquet")), pages)
    assert out.count() == 0


def test_nested_pages_directory_keeps_every_page(corpus_dir, tmp_path):
    # half the pages in a subdirectory (a partitioned layout): the read must
    # walk into it and drop none
    import os
    import pyarrow.parquet as pq

    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    half = pages.num_rows // 2
    d = tmp_path / "pages"
    os.makedirs(d / "extra")
    pq.write_table(pages.slice(0, half), str(d / "part-0000.parquet"))
    pq.write_table(pages.slice(half), str(d / "extra" / "part-0001.parquet"))
    docs, _ = _docs_pages(corpus_dir)
    check(extract(docs, str(d)), corpus_dir)


def test_nested_documents_directory_raises(tmp_path):
    import os
    from norsk_historisk_avis_ocr_ray.pipelines.sharded import list_shards

    os.makedirs(tmp_path / "documents" / "part-0001")
    (tmp_path / "documents" / "part-0000.parquet").write_bytes(b"")
    with pytest.raises(ValueError, match="part-0001"):
        list_shards(str(tmp_path))


def test_read_documents_jsonl_and_csv(ray_session, tmp_path):
    """Raw-crawl drop formats ingest through the same reader: the span
    pipeline must produce identical output from parquet, JSONL and CSV
    copies of the same documents table."""
    import pandas as pd
    import pyarrow.parquet as pq

    from norsk_historisk_avis_ocr_ray.sources.io import read_documents

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id", "text"]).to_pandas().head(50)
    pqp = str(tmp_path / "docs.parquet")
    jlp = str(tmp_path / "docs.jsonl")
    csp = str(tmp_path / "docs.csv")
    import pyarrow as pa
    pq.write_table(pa.Table.from_pandas(src, preserve_index=False), pqp)
    src.to_json(jlp, orient="records", lines=True)
    src.to_csv(csp, index=False)

    def canon(ds):
        return (ds.to_pandas().astype({"doc_id": "int64"})
                .sort_values("doc_id").reset_index(drop=True)
                [["doc_id", "text"]])

    a = canon(read_documents(pqp))
    b = canon(read_documents(jlp))
    c = canon(read_documents(csp))
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)
