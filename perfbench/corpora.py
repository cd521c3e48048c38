"""Workload corpora: co-partitioned shards from ``synth.corpus``, cached per seed.

Every workload reads a directory laid out the way ``pipelines.sharded`` and
``pipelines.run`` expect::

    <corpus>/documents/part-NNNN.parquet   (doc_id, spans)
    <corpus>/pages/part-NNNN.parquet       media side table (media workloads)
    <corpus>/golden/part-NNNN.parquet      the generator's expected output
    <corpus>/_SUCCESS

Shard ``i`` of seed ``s`` is built by ``CorpusBuilder(seed=s * 1000 + i)``
with ids namespaced ``sNNN-``, so the same seed gives the same bytes. The
program under test only ever sees ``documents/`` and ``pages/``.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from norsk_historisk_avis_ocr_ray.sources.codec import decode_image, encode_image
from norsk_historisk_avis_ocr_ray.synth.corpus import CorpusBuilder

# The shard size bench.py writes (``n_shards = n_docs // 128`` at its default
# corpus size), so per-shard costs weigh what they weigh there. At 100 or more
# docs a shard runs through the generator's whole kind mix, whose position in
# the mix is the doc's index inside its shard.
DOCS_PER_SHARD = 128

# name -> (shards, docs per shard); README.md "Sizing" gives the pass times.
SHAPES = {
    "pages-zlib": (3, DOCS_PER_SHARD),
    "text-only": (50, DOCS_PER_SHARD),
    "resume-lossless": (2, DOCS_PER_SHARD),
    "dataflow-join": (3, DOCS_PER_SHARD),
}
# The untimed warm pass only pays first-execution costs: a small corpus.
WARM_SHAPE = (2, 4)

# Part of the cache directory's name: raise it when the files a seed gives
# change, so a cached corpus of the old layout is not reused.
LAYOUT = 2

# Lossless re-encodings for resume-lossless, alternating page by page over
# the corpus. JPEG is excluded: a re-encode changes the mock-OCR text
# (README.md).
LOSSLESS_CODECS = ("png", "tiff")
# Uncompressed TIFF pages dominate a resume-lossless worker's memory, so each
# shard holds the same TIFF pixels: a page whose turn is TIFF becomes PNG once
# the shard's TIFF pages reach this many. Alternation alone gives 267-411 Mi
# pixels per shard over seeds 1-49, which moved peak_rss_mb by seed.
TIFF_PIXELS_PER_SHARD = 240 * 2**20


def _text_kinds(n: int) -> list[str]:
    """Deterministic text-only mix: text, shuffled, empty and dup rows."""
    kinds = []
    for i in range(n):
        r = (i * 9973 + 7) % 100
        kinds.append("text" if r < 80 else "shuffled" if r < 93
                     else "empty" if r < 98 else "dup")
    return kinds


def _build_shard(workload: str, seed: int, shard: int, n_docs: int) -> CorpusBuilder:
    b = CorpusBuilder(seed=seed * 1000 + shard, prefix=f"s{shard:03d}-")
    if workload != "text-only":
        b.build(n_docs)
        return b
    for i, kind in enumerate(_text_kinds(n_docs)):
        doc_id = f"{b.prefix}doc-{i:06d}"
        if kind == "dup":  # exact duplicate input row; one output row expected
            b.add_doc(doc_id, "text")
            b.doc_rows.append(dict(b.doc_rows[-1]))
        else:
            b.add_doc(doc_id, kind)
    return b


def _reencode_lossless(pages: pa.Table, first: int) -> pa.Table:
    """Re-encode page ``first + i`` of the corpus with the next lossless codec
    in turn, up to ``TIFF_PIXELS_PER_SHARD`` of TIFF in this shard."""
    images, codecs = [], []
    tiff_px = 0
    for i, (buf, w, h, codec) in enumerate(zip(
            pages["image"].to_pylist(), pages["width"].to_pylist(),
            pages["height"].to_pylist(), pages["codec"].to_pylist()), first):
        target = LOSSLESS_CODECS[i % len(LOSSLESS_CODECS)]
        if target == "tiff":
            if tiff_px + w * h > TIFF_PIXELS_PER_SHARD:
                target = "png"
            else:
                tiff_px += w * h
        img = decode_image(buf, w, h, codec)
        images.append(encode_image(img, target))
        codecs.append(target)
    pages = pages.set_column(pages.schema.get_field_index("image"), "image",
                             pa.array(images, pa.binary()))
    return pages.set_column(pages.schema.get_field_index("codec"), "codec",
                            pa.array(codecs, pa.string()))


def _dictionary_columns(tbl: pa.Table) -> list[str]:
    """Every column but the page payloads. Each ``image`` is unique, so a
    dictionary never pays for it; with one, the writer falls back to plain
    pages after the first dictionary page, and reading such a column back
    takes memory out of step with its size, which jumps from seed to seed
    (README.md, "Page files and memory")."""
    return [c for c in tbl.column_names if c != "image"]


def write_corpus(out_dir: str, workload: str, seed: int,
                 shape: tuple[int, int] | None = None) -> None:
    """Generate ``workload``'s corpus for ``seed`` into ``out_dir``."""
    n_shards, per_shard = shape or SHAPES[workload]
    n_pages = 0
    for shard in range(n_shards):
        b = _build_shard(workload, seed, shard, per_shard)
        tables = {"documents": b.documents_table(), "golden": b.golden_table()}
        if workload != "text-only":
            pages = b.pages_table()
            if workload == "resume-lossless":
                pages = _reencode_lossless(pages, n_pages)
            n_pages += pages.num_rows
            tables["pages"] = pages
        for name, tbl in tables.items():
            os.makedirs(os.path.join(out_dir, name), exist_ok=True)
            pq.write_table(tbl, os.path.join(out_dir, name,
                                             f"part-{shard:04d}.parquet"),
                           use_dictionary=_dictionary_columns(tbl))
    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        f.write(f"{workload} {seed} {n_shards}x{per_shard}\n")


def ensure_corpus(cache_root: str, workload: str, seed: int,
                  shape: tuple[int, int] | None = None) -> str:
    """Cached ``write_corpus``: built once per (workload, seed, shape)."""
    n_shards, per_shard = shape or SHAPES[workload]
    path = os.path.join(cache_root,
                        f"{workload}-{seed}-{n_shards}x{per_shard}-L{LAYOUT}")
    if os.path.exists(os.path.join(path, "_SUCCESS")):
        return path
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    write_corpus(tmp, workload, seed, (n_shards, per_shard))
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path


def read_golden(corpus_dir: str) -> pa.Table:
    return pq.read_table(os.path.join(corpus_dir, "golden"))


def count_rows(corpus_dir: str, table: str) -> int:
    """Rows of one of the corpus's tables (0 when it has none), from the
    parquet footers: ``golden`` gives the distinct docs, ``pages`` the pages."""
    path = os.path.join(corpus_dir, table)
    if not os.path.isdir(path):
        return 0
    return sum(pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
               for f in os.listdir(path) if f.endswith(".parquet"))
