"""Resume-after-crash: kill after K shard commits, re-run, output identical
to an uninterrupted run (the north rule's checkpoint criterion)."""

import os

import pyarrow.parquet as pq
import pytest

from norsk_historisk_avis_ocr_ray.pipelines.run import run_resumable
from norsk_historisk_avis_ocr_ray.synth.corpus import write_corpus_parallel


@pytest.fixture(scope="module")
def copart_dir(tmp_path_factory):
    import ray
    assert ray.is_initialized()
    d = str(tmp_path_factory.mktemp("copart"))
    write_corpus_parallel(d, 24, seed=5, n_shards=6)
    return d


def read_all(out_dir):
    files = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
    tables = {f: pq.read_table(os.path.join(out_dir, f)) for f in files}
    return {doc["doc_id"]: doc for t in tables.values() for doc in t.to_pylist()}


def test_crash_and_resume_is_equivalent(copart_dir, tmp_path):
    clean_out = str(tmp_path / "clean")
    summary = run_resumable(copart_dir, clean_out)
    assert not summary["crashed"] and summary["committed"] == 6

    crash_out = str(tmp_path / "crashy")
    s1 = run_resumable(copart_dir, crash_out, fail_after=2)
    assert s1["crashed"] and s1["committed"] == 2 and s1["pending_left"] == 4

    s2 = run_resumable(copart_dir, crash_out)
    assert not s2["crashed"]
    assert s2["already_done"] == 2
    assert s2["committed"] == 4 and s2["pending_left"] == 0

    assert read_all(clean_out) == read_all(crash_out)


def test_rerun_is_noop(copart_dir, tmp_path):
    out = str(tmp_path / "out")
    run_resumable(copart_dir, out)
    s = run_resumable(copart_dir, out)
    assert s["committed"] == 0 and s["already_done"] == 6


def test_lineage_records(copart_dir, tmp_path):
    out = str(tmp_path / "out")
    run_resumable(copart_dir, out)
    from norsk_historisk_avis_ocr_ray.state.manifest import Manifest
    recs = Manifest(os.path.join(out, "manifest.jsonl")).committed()
    assert len(recs) == 6
    for r in recs.values():
        assert 0 < r["docs_out"] <= r["docs_in"]  # dup doc_ids dedupe on ingest
        assert r["spans_out"] >= 0 and r["wall_s"] >= 0
        assert os.path.exists(r["output"])


def test_pages_in_totals_count_every_page(copart_dir, tmp_path):
    # the lineage takes each shard's page count from its pages file footer,
    # though the pages themselves are only streamed through the kernel
    s = run_resumable(copart_dir, str(tmp_path / "out"))
    n_pages = pq.read_table(os.path.join(copart_dir, "pages")).num_rows
    assert n_pages > 0 and s["totals"]["pages_in"] == n_pages


def test_runner_import_leaves_ray_data_out():
    # a run_resumable worker imports pipelines.run (and .sharded with it);
    # ray.data, and pandas with it, stays out until extract_sharded runs
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys\n"
            "import norsk_historisk_avis_ocr_ray.pipelines.run\n"
            "print('ray.data' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", code], cwd=root,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-4000:]
    assert r.stdout.split() == ["False"]


def test_less_than_one_free_cpu_still_commits_every_shard(copart_dir, tmp_path):
    # an actor holds 3.5 of the session's 4 CPUs when the run starts: the
    # shards must queue behind it, not be skipped
    import threading
    import time

    import ray

    @ray.remote(num_cpus=3.5)
    class Hog:
        def ready(self):
            return True

    hog = Hog.remote()
    ray.get(hog.ready.remote())
    deadline = time.time() + 30
    while ray.available_resources().get("CPU", 0) >= 1:
        assert time.time() < deadline
        time.sleep(0.1)
    threading.Timer(2.0, ray.kill, args=(hog,)).start()
    s = run_resumable(copart_dir, str(tmp_path / "out"))
    assert s["committed"] == 6 and s["pending_left"] == 0


def span_key(spans):
    return [(s["kind"], s["text"], s["media_ref"])
            for s in sorted(spans, key=lambda s: s["offset"])]


def assert_golden(out_dir, copart_dir):
    got = read_all(out_dir)
    golden = {g["doc_id"]: g for g in
              pq.read_table(os.path.join(copart_dir, "golden")).to_pylist()}
    assert set(got) == set(golden)
    for doc_id, g in golden.items():
        assert span_key(got[doc_id]["spans"]) == span_key(g["spans"]), doc_id
        assert got[doc_id]["combined"] == g["combined"], doc_id
        assert got[doc_id]["transcribed"] == g["transcribed"], doc_id


def test_stale_temp_output_is_removed(copart_dir, tmp_path):
    # a worker killed mid-write leaves its temp file; the shard's next write
    # removes it
    out = tmp_path / "out"
    out.mkdir()
    (out / "part-0000.parquet.tmp-99999").write_bytes(b"PAR1 torn")
    s = run_resumable(copart_dir, str(out))
    assert s["committed"] == 6
    assert not [f for f in os.listdir(out) if ".tmp-" in f]
    assert_golden(str(out), copart_dir)


def test_torn_manifest_tail_is_not_a_commit(copart_dir, tmp_path):
    # a crash mid-append leaves a last line with no newline: its shard is not
    # committed, the re-run commits it, and the torn bytes are gone
    import json

    out = str(tmp_path / "out")
    assert run_resumable(copart_dir, out, fail_after=1)["committed"] == 1
    path = os.path.join(out, "manifest.jsonl")
    with open(path, "a") as f:
        f.write('{"shard": "part-0005", "docs_in"')
    s = run_resumable(copart_dir, out)
    assert not s["crashed"] and s["pending_left"] == 0
    with open(path) as f:
        shards = [json.loads(line)["shard"] for line in f]
    assert sorted(shards) == [f"part-{i:04d}" for i in range(6)]
    assert_golden(out, copart_dir)


def test_resume_starts_the_largest_shard_first(tmp_path, monkeypatch):
    # list_shards' order (largest pages file first) is the submit order: with
    # one shard in flight, the first commit is the largest shard, which is
    # not part-0000
    import pyarrow as pa
    import pyarrow.compute as pc

    from norsk_historisk_avis_ocr_ray.pipelines import run as run_mod
    from norsk_historisk_avis_ocr_ray.state.manifest import Manifest
    from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus

    corpus = make_corpus(12, seed=3)
    docs, pages = corpus["documents"], corpus["pages"]
    d = tmp_path / "corpus"
    (d / "documents").mkdir(parents=True)
    (d / "pages").mkdir()
    for i, part in enumerate((docs.slice(0, 2), docs.slice(2))):
        refs = sorted({s["media_ref"] for spans in part["spans"].to_pylist()
                       for s in spans if s["media_ref"]})
        pq.write_table(part, str(d / "documents" / f"part-{i:04d}.parquet"))
        pq.write_table(pages.filter(pc.is_in(pages["media_ref"],
                                             pa.array(refs, pa.string()))),
                       str(d / "pages" / f"part-{i:04d}.parquet"))
    sizes = [os.path.getsize(d / "pages" / f"part-{i:04d}.parquet")
             for i in range(2)]
    assert sizes[1] > sizes[0]

    monkeypatch.setattr(run_mod, "cluster_cpus", lambda: 1)
    out = str(tmp_path / "out")
    s = run_resumable(str(d), out, fail_after=1)
    assert s["committed"] == 1 and s["pending_left"] == 1
    assert list(Manifest(os.path.join(out, "manifest.jsonl")).committed()) \
        == ["part-0001"]


def test_complete_bad_manifest_line_raises(tmp_path):
    from norsk_historisk_avis_ocr_ray.state.manifest import Manifest

    path = tmp_path / "manifest.jsonl"
    path.write_text('{"shard": "a"}\n{"shard": \n')
    with pytest.raises(ValueError):
        Manifest(str(path)).committed()


def test_drivers_start_without_ray_init(copart_dir, tmp_path):
    # a fresh process that never calls ray.init(): each driver must read the
    # CPU count and let its first Ray call connect (here to this session's
    # cluster, through RAY_ADDRESS)
    import subprocess
    import sys
    import textwrap

    import ray

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(f"""
        import ray
        from norsk_historisk_avis_ocr_ray.pipelines.run import run_resumable
        from norsk_historisk_avis_ocr_ray.pipelines.sharded import extract_sharded

        assert not ray.is_initialized()
        assert extract_sharded({copart_dir!r}).count() > 0
        ray.shutdown()
        assert not ray.is_initialized()
        s = run_resumable({copart_dir!r}, {str(tmp_path / "out")!r})
        assert s["committed"] == 6, s
    """)
    env = dict(os.environ,
               RAY_ADDRESS=ray.get_runtime_context().gcs_address,
               PYTHONPATH=os.pathsep.join(
                   p for p in (root, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-4000:]
    assert_golden(str(tmp_path / "out"), copart_dir)
