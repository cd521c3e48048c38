"""The traced replay gives the untraced pipeline's output, and its ledger
accounts for every traced span."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import corpora
import golden
import ledger
import tracing
from norsk_historisk_avis_ocr_ray.pipelines import run as run_mod
from norsk_historisk_avis_ocr_ray.pipelines import sharded
from norsk_historisk_avis_ocr_ray.pipelines.run import run_resumable
from norsk_historisk_avis_ocr_ray.pipelines.sharded import extract_sharded

SHAPE = {"pages-zlib": (2, 6), "resume-lossless": (2, 3)}


def by_doc(tbl: pa.Table) -> list[dict]:
    return sorted(tbl.to_pylist(), key=lambda r: r["doc_id"])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("corpora"))
    return {w: corpora.ensure_corpus(root, w, 5, shape) for w, shape in SHAPE.items()}


def test_sharded_replay_equals_pipeline(ray_session, corpus, tmp_path):
    path = corpus["pages-zlib"]
    untraced = pa.concat_tables(list(extract_sharded(path).iter_batches(
        batch_format="pyarrow", batch_size=None)))
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = tracing.replay(path, "sharded", str(tmp_path), tracer)
    assert by_doc(traced) == by_doc(untraced)
    assert golden.check(traced, corpora.read_golden(path))["failed"] == []
    assert {s["name"] for s in tracer.spans} >= {"shard", "decode", "layout", "ocr"}


def test_run_replay_equals_pipeline(ray_session, corpus, tmp_path):
    path = corpus["resume-lossless"]
    out_dir = str(tmp_path / "untraced")
    run_resumable(path, out_dir)
    untraced = pq.read_table([os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
                              if f.endswith(".parquet")])
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = tracing.replay(path, "run", str(tmp_path / "traced"), tracer)
    assert by_doc(traced) == by_doc(untraced)
    assert {"process_shard", "write", "manifest.commit"} <= {
        s["name"] for s in tracer.spans}


def test_patches_are_restored(corpus, tmp_path):
    before = sharded.explode_spans, run_mod.process_shard
    with tracing.patched(tracing.Tracer()):
        assert sharded.explode_spans is not before[0]
        assert run_mod.process_shard is not before[1]
    assert (sharded.explode_spans, run_mod.process_shard) == before


def test_ledger_accounts_for_every_span(corpus, tmp_path):
    rep = tracing.measure(corpus["pages-zlib"], "sharded", str(tmp_path), 0)
    owned = {n for names in ledger.LAYERS.values() for n in names}
    assert {s["name"] for s in rep["spans"]} <= owned
    kernel_ms = sum((s["end"] - s["start"]) / 1e6 for s in rep["spans"]
                    if s["parent"] is None)
    meta = {"rounds": 1, "shards": 2, "docs": 12, "e2e_cpu_ms": kernel_ms + 50.0,
            "traced_ms": rep["traced_ms"], "unwrapped_ms": rep["unwrapped_ms"]}
    led = ledger.compute(meta, rep["spans"])
    layers = sum(v for k, v in led["accounting"].items() if k != "framework")
    assert layers == pytest.approx(kernel_ms)
    assert led["accounting"]["framework"] == pytest.approx(50.0)
    assert sum(led["accounting"].values()) == pytest.approx(meta["e2e_cpu_ms"])
    assert led["metrics"]["decode.raw-zlib.ms_per_page"] > 0


def test_probe_spans_keep_their_own_ids(corpus, tmp_path):
    rep = tracing.measure(corpus["pages-zlib"], "sharded", str(tmp_path), 0)
    spans = rep["spans"] + tracing.probe(corpus["resume-lossless"], "run",
                                         str(tmp_path))
    assert len({s["id"] for s in spans}) == len(spans)
    assert min(ledger.self_ms(spans).values()) >= 0


def test_dataflow_walls_from_stats():
    stats = (
        "Operator 1 ReadParquet->MapBatches(explode_spans): 2 tasks executed, "
        "2 blocks produced in 0.5s\n"
        "Operator 4 MapBatches(PageOcrStage): 4 tasks executed, 4 blocks produced in 3.25s\n"
        "Operator 5 Join(num_partitions=2): executed in 1.5s\n"
        "\tSuboperator 0 HashShuffle: 4 tasks executed, 4 blocks produced\n"
        "Operator 9 MapBatches(_repack_bucket)->MapBatches(correct_batch): "
        "3 tasks executed, 3 blocks produced in 0.75s\n")
    assert ledger.dataflow_walls(stats) == {"ocr": 3.25, "join": 1.5, "repack": 0.75}
