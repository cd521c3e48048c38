"""Corpus generation is byte-identical for a seed and differs across seeds."""

import os
from collections import Counter

import pyarrow.parquet as pq
import pytest

import corpora
from norsk_historisk_avis_ocr_ray.synth.corpus import CorpusBuilder

SMALL = {"pages-zlib": (2, 4), "text-only": (2, 30), "resume-lossless": (2, 3)}


def tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_bytes(tmp_path, workload):
    a, b, c = (str(tmp_path / n) for n in "abc")
    corpora.write_corpus(a, workload, 3, SMALL[workload])
    corpora.write_corpus(b, workload, 3, SMALL[workload])
    corpora.write_corpus(c, workload, 4, SMALL[workload])
    assert tree_bytes(a) == tree_bytes(b)
    assert tree_bytes(a) != tree_bytes(c)


def test_resume_pages_are_lossless_png_and_tiff(tmp_path):
    path = str(tmp_path / "r")
    corpora.write_corpus(path, "resume-lossless", 3, SMALL["resume-lossless"])
    codecs = set(pq.read_table(os.path.join(path, "pages"))["codec"].to_pylist())
    assert codecs == {"png", "tiff"}


def test_text_only_has_no_pages_and_dup_rows(tmp_path):
    path = str(tmp_path / "t")
    corpora.write_corpus(path, "text-only", 3, (1, 100))
    assert not os.path.exists(os.path.join(path, "pages"))
    docs = pq.read_table(os.path.join(path, "documents"))["doc_id"].to_pylist()
    golden = pq.read_table(os.path.join(path, "golden"))["doc_id"].to_pylist()
    assert len(docs) > len(set(docs)) == len(golden)



def generated_kinds(monkeypatch, workload: str, shard: int, per_shard: int) -> set[str]:
    """The generator kinds one shard of ``workload`` is built from."""
    kinds = []
    add_doc = CorpusBuilder.add_doc

    def recording(self, doc_id, kind):
        kinds.append(kind)
        add_doc(self, doc_id, kind)

    monkeypatch.setattr(CorpusBuilder, "add_doc", recording)
    b = corpora._build_shard(workload, 3, shard, per_shard)
    monkeypatch.undo()
    ids = Counter(r["doc_id"] for r in b.doc_rows)
    return set(kinds) | ({"dup"} if max(ids.values()) > 1 else set())


MEDIA_KINDS = {"media", "interleaved", "text", "empty", "tiny", "shuffled", "dup"}


@pytest.mark.parametrize("workload,expected", [
    ("pages-zlib", MEDIA_KINDS), ("resume-lossless", MEDIA_KINDS),
    ("text-only", {"text", "shuffled", "empty", "dup"})])
def test_every_shard_has_every_kind(monkeypatch, workload, expected):
    n_shards, per_shard = corpora.SHAPES[workload]
    for shard in range(n_shards):
        assert generated_kinds(monkeypatch, workload, shard, per_shard) == expected


def test_page_payloads_have_no_dictionary(tmp_path):
    path = str(tmp_path / "r")
    corpora.write_corpus(path, "resume-lossless", 3, SMALL["resume-lossless"])
    meta = pq.ParquetFile(os.path.join(path, "pages", "part-0000.parquet")).metadata
    names = [meta.schema.column(i).name for i in range(meta.num_columns)]
    image = meta.row_group(0).column(names.index("image"))
    assert not image.has_dictionary_page
    assert meta.row_group(0).column(names.index("codec")).has_dictionary_page


def _tiff_pixels(corpus: str) -> list[list[int]]:
    """Per shard, the pixel counts of its TIFF pages."""
    out = []
    for f in sorted(os.listdir(os.path.join(corpus, "pages"))):
        pages = pq.read_table(os.path.join(corpus, "pages", f)).to_pylist()
        out.append([p["width"] * p["height"] for p in pages
                    if p["codec"] == "tiff"])
    return out


def test_tiff_pixels_per_shard_are_capped(tmp_path, monkeypatch):
    shape = (2, 6)
    corpora.write_corpus(str(tmp_path / "a"), "resume-lossless", 3, shape)
    uncapped = _tiff_pixels(str(tmp_path / "a"))
    cap = min(sum(px) for px in uncapped) // 2
    monkeypatch.setattr(corpora, "TIFF_PIXELS_PER_SHARD", cap)
    corpora.write_corpus(str(tmp_path / "b"), "resume-lossless", 3, shape)
    for px, before in zip(_tiff_pixels(str(tmp_path / "b")), uncapped):
        assert px and sum(px) <= cap
        assert len(px) < len(before)
