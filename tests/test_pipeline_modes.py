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


def test_dataflow_reads_documents_once_and_runs_no_join(corpus_dir):
    # one explode of the documents feeds both the media resolution and the
    # rest; the two wide steps are sort shuffles, with no hash join
    import re

    docs, pages = _docs_pages(corpus_dir)
    stats = extract(docs, pages).materialize().stats()
    ops = re.findall(r"^Operator \d+ (.+?): ", stats, re.M)
    runs = [op for op in ops
            if "explode_spans" in op and not op.startswith("UnionOperator")]
    assert len(runs) == 1, stats
    assert not any("Join" in op for op in ops), stats


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


def test_span_stages_emit_the_one_row_schema(corpus_dir):
    # explode, the page kernel (in process and as its Ray stage) and resolve
    # all pass SPAN_ROW_SCHEMA rows: a span has no region_idx, a page region
    # no doc_id or in_offset, and a resolved region every column but error
    import pyarrow.parquet as pq
    from norsk_historisk_avis_ocr_ray.schema import (DOCUMENTS_SCHEMA,
                                                     SPAN_ROW_SCHEMA)
    from norsk_historisk_avis_ocr_ray.stages.explode import explode_spans
    from norsk_historisk_avis_ocr_ray.stages.ocr import (
        PAGE_COLUMNS, LayoutOcrStage, MockBarcodeOcr, ocr_pages, resolve_spans)

    docs = pa.concat_tables([
        pq.read_table(f"{corpus_dir}/documents").select(["doc_id", "spans"]),
        pa.Table.from_pylist([{"doc_id": "d-empty", "spans": []}],
                             schema=DOCUMENTS_SCHEMA)])
    pages = pq.read_table(f"{corpus_dir}/pages.parquet", columns=PAGE_COLUMNS)
    spans = explode_spans(docs)
    regions = ocr_pages(pages, MockBarcodeOcr())
    resolved = resolve_spans(pa.concat_tables([spans, regions]))
    for t in (spans, explode_spans(docs.slice(0, 0)), regions,
              LayoutOcrStage(MockBarcodeOcr)(pages), resolved,
              resolve_spans(spans), resolve_spans(spans.slice(0, 0))):
        assert t.schema == SPAN_ROW_SCHEMA
    assert spans["region_idx"].null_count == spans.num_rows
    assert "empty" in spans["kind"].to_pylist()
    assert regions["doc_id"].null_count == regions.num_rows > 0
    assert regions["in_offset"].null_count == regions.num_rows
    assert set(regions["__part"].to_pylist()) == {0}
    assert resolved.num_rows >= spans.num_rows
    assert all(resolved[c].null_count == 0
               for c in SPAN_ROW_SCHEMA.names if c != "error")


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


@pytest.fixture(scope="module")
def twenty_shards(corpus_dir, tmp_path_factory):
    """The corpus as 20 shards, each with only the pages its documents
    reference."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    d = str(tmp_path_factory.mktemp("copart20"))
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
    return d


def test_sharded_deals_shards_into_four_groups_per_cpu(corpus_dir,
                                                       twenty_shards):
    # 20 shards on the session's 4 CPUs: more shards than 4 per CPU, so they
    # are dealt into 16 groups of shards, one task each, and every document
    # still comes out once
    import re
    from collections import Counter

    import pyarrow.parquet as pq
    out = extract_sharded(twenty_shards).materialize()
    stats = out.stats()
    n = re.search(r"MapBatches\(fn\): (\d+) tasks executed", stats)
    assert n and int(n.group(1)) == 16, stats
    seen = Counter(out.to_pandas()["doc_id"])
    ids = set(pq.read_table(f"{corpus_dir}/documents")["doc_id"].to_pylist())
    assert set(seen) == ids and set(seen.values()) == {1}
    check(out, corpus_dir)


def test_sharded_rows_do_not_depend_on_the_grouping(twenty_shards,
                                                    monkeypatch):
    # 4 groups of 5 shards against 16 groups of 1-2 shards: the same rows
    from norsk_historisk_avis_ocr_ray.pipelines import sharded

    monkeypatch.setattr(sharded, "GROUPS_PER_CPU", 1)
    few = _rows(extract_sharded(twenty_shards))
    monkeypatch.setattr(sharded, "GROUPS_PER_CPU", 4)
    assert _rows(extract_sharded(twenty_shards)) == few


def _write_shard(d, name, docs, pages=None):
    import pyarrow.parquet as pq
    docs_file = str(d / f"{name}-docs.parquet")
    pq.write_table(docs, docs_file)
    pages_file = ""
    if pages is not None:
        pages_file = str(d / f"{name}-pages.parquet")
        pq.write_table(pages, pages_file)
    return {"shard": name, "docs_file": docs_file, "pages_file": pages_file}


def test_shard_group_equals_its_shards_one_by_one(tmp_path):
    # one group whose shards break the partitioning assumption: its rows
    # must be each shard's own rows, in group order
    import pyarrow.compute as pc
    from norsk_historisk_avis_ocr_ray.pipelines.sharded import (
        _shard_task_fn, load_shard, process_shard)
    from norsk_historisk_avis_ocr_ray.schema import DOCUMENTS_SCHEMA
    from norsk_historisk_avis_ocr_ray.stages.ocr import MockBarcodeOcr
    from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus

    corpus = make_corpus(12, seed=3)
    docs, pages = corpus["documents"], corpus["pages"]
    refs = pages["media_ref"].to_pylist()

    def pages_of(names):
        return pages.filter(pc.is_in(pages["media_ref"], pa.array(names)))

    # a: the first rows, and the pages of the first eight refs
    a_docs = docs.slice(0, 6)
    # b: the other rows with an extra column, plus a's last doc_id (so the
    # two sort next to each other) and a doc with no spans. b's page under
    # a's first ref has other pixels, and b names pages (of a's eight) that
    # only a holds.
    b_rows = docs.slice(6).to_pylist() + [
        {"doc_id": "doc-000004", "spans": [
            {"kind": "media", "text": "", "media_ref": refs[0], "offset": 0}]},
        {"doc_id": "e-empty", "spans": []}]
    b_docs = pa.Table.from_pylist(b_rows, schema=DOCUMENTS_SCHEMA)
    b_docs = b_docs.append_column("note", pa.array(["x"] * b_docs.num_rows))
    twin = pages_of([refs[-1]])
    twin = twin.set_column(0, "media_ref", pa.array([refs[0]]))
    b_pages = pa.concat_tables([pages_of(refs[8:-1]), twin])
    # c: no docs rows; d: span fields in another order and int64 offsets,
    # naming a page of b
    c_docs = docs.slice(0, 0)
    d_docs = pa.Table.from_pylist([{"doc_id": "d-other-order", "spans": [
        {"offset": 0, "media_ref": "", "text": "og fodt", "kind": "text"},
        {"offset": 1, "media_ref": refs[8], "text": "", "kind": "media"}]}])
    shards = [_write_shard(tmp_path, "a", a_docs, pages_of(refs[:8])),
              _write_shard(tmp_path, "b", b_docs, b_pages),
              _write_shard(tmp_path, "c", c_docs, pages_of(refs[:1])),
              _write_shard(tmp_path, "d", d_docs)]

    engine = MockBarcodeOcr()
    want = pa.concat_tables([process_shard([load_shard(s)], engine)
                             for s in shards])
    got = _shard_task_fn(MockBarcodeOcr, True, True)(
        pa.Table.from_pylist(shards))
    assert got.to_pylist() == want.to_pylist()

    rows = got.to_pylist()
    twice = [r for r in rows if r["doc_id"] == "doc-000004"]
    assert len(twice) == 2 and twice[0]["spans"] != twice[1]["spans"]
    # a's doc-000000 and b's doc-000004 name the same ref, each its own page
    first = next(r for r in rows if r["doc_id"] == "doc-000000")
    assert first["n_errors"] == twice[1]["n_errors"] == 0
    assert first["combined"] != twice[1]["combined"]
    # b's doc-000005 names four pages that only a holds
    missing = [r for r in rows if r["doc_id"] == "doc-000005"]
    assert [r["n_errors"] for r in missing] == [4]
    empty = next(r for r in rows if r["doc_id"] == "e-empty")
    assert empty["spans"] == [] and empty["n_errors"] == 0
    other = rows[-1]
    assert other["doc_id"] == "d-other-order" and other["n_errors"] == 1
    assert other["transcribed"] == "og født"


def test_span_pass_size_cap_keeps_the_rows(tmp_path, monkeypatch):
    # a group runs through the span stages in runs of consecutive shards
    # under SPAN_PASS_BYTES; any cap gives the same rows
    from norsk_historisk_avis_ocr_ray.pipelines import sharded
    from norsk_historisk_avis_ocr_ray.stages.ocr import MockBarcodeOcr
    from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus

    corpus = make_corpus(16, seed=5)
    docs, pages = corpus["documents"], corpus["pages"]
    # neighbouring shards share two doc_ids and every shard holds every
    # page: rows that a misplaced run boundary would merge or resolve
    # against another shard's page
    shards = [_write_shard(tmp_path, name, docs.slice(i * 4, 6), pages)
              for i, name in enumerate("abc")]
    engine = MockBarcodeOcr()
    sizes = [sharded._span_docs(d).nbytes + sharded.ocr_pages(p, engine).nbytes
             for d, p in map(sharded.load_shard, shards)]
    runs = []
    explode = sharded.explode_spans

    def counting_explode(t, parts):
        runs.append(max(parts.to_pylist()) + 1)
        return explode(t, parts)

    monkeypatch.setattr(sharded, "explode_spans", counting_explode)
    body = sharded._shard_task_fn(MockBarcodeOcr, True, True)
    group = pa.Table.from_pylist(shards)
    want = pa.concat_tables([sharded.process_shard([sharded.load_shard(s)],
                                                   engine) for s in shards])
    for cap, n_runs in ((sharded.SPAN_PASS_BYTES, [3]),
                        (sizes[0] + sizes[1], [2, 1]), (1, [1, 1, 1])):
        monkeypatch.setattr(sharded, "SPAN_PASS_BYTES", cap)
        runs.clear()
        assert body(group).to_pylist() == want.to_pylist()
        assert runs == n_runs


def test_truncated_docs_file_raises_arrow_invalid(tmp_path):
    import pyarrow.parquet as pq
    from norsk_historisk_avis_ocr_ray.pipelines.sharded import load_shard
    from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus

    shard = _write_shard(tmp_path, "s", make_corpus(8, seed=1)["documents"])
    with open(shard["docs_file"], "r+b") as f:
        f.truncate(100)
    with pytest.raises(pa.ArrowInvalid):
        pq.read_table(shard["docs_file"])
    with pytest.raises(pa.ArrowInvalid):
        load_shard(shard)


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


def test_dataflow_media_buckets_resolve_like_sharded(corpus_dir, tmp_path):
    # a page named by media spans of three docs, a doc whose media spans
    # name pages of two buckets between text spans, and pages no span
    # names: the dataflow rows are the sharded rows
    import pyarrow.parquet as pq
    from norsk_historisk_avis_ocr_ray.functions import scale
    from norsk_historisk_avis_ocr_ray.pipelines.extract import _with_bucket
    from norsk_historisk_avis_ocr_ray.schema import DOCUMENTS_SCHEMA, PART

    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    refs = pages["media_ref"].to_pylist()
    keys = pa.table({PART: pa.nulls(len(refs), pa.int32())})
    buckets = _with_bucket(keys, pages["media_ref"],
                           max(64, scale.read_blocks(2.0)))[PART].to_pylist()
    shared = refs[0]
    other = next(r for r, b in zip(refs, buckets) if b != buckets[0])

    def media(ref, offset):
        return {"kind": "media", "text": "", "media_ref": ref, "offset": offset}

    def text(t, offset):
        return {"kind": "text", "text": t, "media_ref": "", "offset": offset}

    docs = pa.Table.from_pylist(
        [{"doc_id": f"d-shared-{i}", "spans": [media(shared, 0)]}
         for i in range(3)]
        + [{"doc_id": "d-two-buckets", "spans": [
            text("før", 0), media(shared, 1), text("midt", 2),
            media(other, 3), text("etter", 4)]}], schema=DOCUMENTS_SCHEMA)
    d = _copart(corpus_dir, str(tmp_path / "copart"), docs)
    sharded = _rows(extract_sharded(d))
    assert _rows(extract(ray.data.from_arrow(docs), pages)) == sharded
    assert [r["n_errors"] for r in sharded] == [0, 0, 0, 0]
    assert len({r["combined"] for r in sharded[:3]}) == 1
    assert sharded[3]["combined"].startswith("før")


def test_dataflow_rows_do_not_depend_on_the_bucket_count(corpus_dir,
                                                         monkeypatch):
    # other buckets put other rows together in each resolve and repack
    # group: the rows stay the same, with pages and without
    from norsk_historisk_avis_ocr_ray.pipelines import extract as extract_mod

    docs, pages = _docs_pages(corpus_dir)
    want = [_rows(extract(docs, p)) for p in (pages, None)]
    monkeypatch.setattr(extract_mod.scale, "read_blocks", lambda *a, **k: 97)
    assert max(64, extract_mod.scale.read_blocks(2.0)) != 64
    assert [_rows(extract(docs, p)) for p in (pages, None)] == want


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


def test_docs_part_column_is_ignored_by_the_dataflow(corpus_dir):
    # a caller's own `part` column (a hive part= directory, a newspaper's
    # part number) rides through the span stages unread, whatever its type
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{corpus_dir}/documents").select(["doc_id", "spans"])
    pages = pq.read_table(f"{corpus_dir}/pages.parquet")
    n = docs.num_rows
    for with_pages in (pages, None):
        want = _rows(extract(ray.data.from_arrow(docs), with_pages))
        for part in (pa.array([i % 3 for i in range(n)], pa.int32()),
                     pa.array(["x"] * n)):
            got = _rows(extract(ray.data.from_arrow(
                docs.append_column("part", part)), with_pages))
            assert got == want


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
