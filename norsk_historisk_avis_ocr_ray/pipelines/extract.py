"""The general extraction pipeline, Ray-Data-native, for inputs that are
not co-partitioned into shards (``pipelines.sharded`` is the zero-shuffle
path for those that are). Both share the page kernel, the span resolution
of ``stages.ocr`` and the span rows' one schema (``schema.SPAN_ROW_SCHEMA``),
and both key on its ``PART`` column: here a row's partition is a blake2b
bucket of its key (``_with_bucket``).

Dataset-level composition (SURVEY.md §3.4):

    documents (doc_id, spans)
      └─ map_batches(explode_spans)                    stateless, Arrow kernels
      └─ spans → region rows, one of two cases:
           pages=None   map_batches(resolve_spans)     text-only: no OCR, a
                                                       media span is MissingMedia
           pages given  pages ─ map_batches(LayoutOcrStage(engine_factory))
                        spans ∪ page regions ─ map_batches(_bucket_media)
                        └─ groupby(PART).map_groups(resolve_spans)
      └─ map_batches(clean_batch)                      stateless T1 cleanup
      └─ map_batches(_bucket_docs)
      └─ groupby(PART).map_groups(_repack_bucket)      reading-order repack
      └─ map_batches(correct_batch)                    normalizer

Every operator is a task operator, and both wide steps are the same sort
shuffle on ``PART``. With pages, OCR is driven by the *pages* dataset: each
page's bytes go from its read task to one OCR task and are never broadcast,
looked up or shuffled; the shuffles move text only.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..functions import scale
from ..functions.textops import clean_batch
from ..schema import PART
from ..stages.correct import correct_batch
from ..stages.explode import explode_spans
from ..stages.ocr import (PAGE_COLUMNS, LayoutOcrStage, MockBarcodeOcr,
                          resolve_spans)
from ..stages.repack import repack_table


def extract(
    docs: Dataset,
    pages: "str | pa.Table | Dataset | None" = None,
    *,
    engine_factory: Callable[[], Any] = MockBarcodeOcr,
    correction: bool = True,
    emit_diff: bool = True,
    ocr_concurrency: Any = None,
    ocr_batch_size: Any = None,
    media_resolution: str = "auto",
) -> Dataset:
    """documents + pages → output Dataset (doc_id, spans, combined,
    transcribed, corrected, n_edits, diff, n_errors).

    pages: a parquet path (file or directory), a pyarrow Table or a Dataset
    with ``media_ref, image, width, height, codec``; None for text-only
    input. Text-only input maps spans straight to regions (no OCR stage; a
    media span becomes a ``MissingMedia`` error row). With pages, the span
    stream and the page kernel's region rows are shuffled together: a media
    span or a page region by its ``media_ref``, any other span by its
    ``doc_id``, the bucket set as each row's ``PART``. Each bucket then
    runs ``resolve_spans``, the join the sharded path runs per span pass.

    Every stage runs as Ray tasks: OCR is ``LayoutOcrStage(engine_factory)``
    with one engine per worker process (``stages.ocr.cached_engine``), the
    corrector is ``correct_batch``. There is no pool to size, so no stage
    can starve another of CPUs.

    ocr_concurrency, ocr_batch_size, media_resolution: ignored; kept because
    the dataflow pass of ``perfbench/session.py`` still passes them.
    ``media_resolution`` other than 'auto' or 'dataflow' is a ``ValueError``.
    """
    if media_resolution not in ("auto", "dataflow"):
        raise ValueError(f"unknown media_resolution {media_resolution!r}; "
                         "expected 'auto' or 'dataflow'")

    # groupby(doc_id) pays ~0.4 ms of per-group Python per document (13 s
    # at 32.5k docs — see functions/combine.py), and resolve_spans and
    # repack_table are vectorized over many keys: so both shuffles group on
    # a bounded bucket of their key instead
    n_buckets = max(64, scale.read_blocks(2.0))
    exploded = docs.map_batches(explode_spans, batch_format="pyarrow")

    if pages is None:
        regions = exploded.map_batches(resolve_spans, batch_format="pyarrow")
    else:
        if isinstance(pages, str):
            pages_ds = ray.data.read_parquet(pages, columns=PAGE_COLUMNS,
                                             file_extensions=["parquet"])
        elif isinstance(pages, Dataset):
            pages_ds = pages.select_columns(PAGE_COLUMNS)
        else:
            # one table is one block, hence one OCR task: slice it
            pages_ds = ray.data.from_arrow(
                _slices(pages.select(PAGE_COLUMNS), scale.read_blocks()))
        # Ray fuses a read into the map after it only when it does not split
        # the read's blocks further, and it does split them when the pages
        # come in fewer files than the read's target block count: page bytes
        # then cross the object store once, read → OCR. Only text leaves the
        # OCR tasks. Rows are bucketed after the union, one block at a time,
        # so that no map fuses into the OCR operator and its line in
        # ds.stats() keeps its own task count.
        page_regions = pages_ds.map_batches(LayoutOcrStage(engine_factory),
                                            batch_format="pyarrow",
                                            batch_size=None)
        regions = (exploded.union(page_regions)
                   .map_batches(partial(_bucket_media, n=n_buckets),
                                batch_format="pyarrow", batch_size=None)
                   .groupby(PART)
                   .map_groups(resolve_spans, batch_format="pyarrow"))

    repacked = (regions.map_batches(clean_batch, batch_format="pyarrow")
                .map_batches(partial(_bucket_docs, n=n_buckets),
                             batch_format="pyarrow")
                .groupby(PART)
                .map_groups(_repack_bucket, batch_format="pyarrow"))
    return repacked.map_batches(
        partial(correct_batch, enabled=correction, emit_diff=emit_diff),
        batch_format="pyarrow", batch_size=256)


def _slices(t: pa.Table, n: int) -> list[pa.Table]:
    """``t`` as up to ``n`` zero-copy row slices (one, empty, for no rows)."""
    step = max(1, -(-t.num_rows // n))
    return [t.slice(i, step) for i in range(0, max(1, t.num_rows), step)]


def _with_bucket(t: pa.Table, keys: pa.ChunkedArray, n: int) -> pa.Table:
    """Span rows with ``PART`` set to the blake2b hash of each row's key
    modulo ``n``, one hash per distinct key (a null key hashes as ``""``).
    A bucket depends on its key alone, so the rows that meet in one do not
    depend on how the input was split."""
    from ..functions.dedup import _hash64  # a large module: workers only

    enc = keys.combine_chunks().dictionary_encode(null_encoding="encode")
    by_key = np.array([_hash64(k or "") % n for k in enc.dictionary.to_pylist()],
                      np.int32)
    return t.set_column(t.schema.get_field_index(PART), PART, pa.array(
        by_key[enc.indices.to_numpy(zero_copy_only=False)]))


def _bucket_media(t: pa.Table, n: int) -> pa.Table:
    """Span rows and page regions bucketed for the media resolution: a media
    span or a page region by its ``media_ref``, any other span by its
    ``doc_id``."""
    by_ref = pc.or_(pc.is_valid(t["region_idx"]), pc.equal(t["kind"], "media"))
    return _with_bucket(t, pc.if_else(by_ref, t["media_ref"], t["doc_id"]), n)


def _bucket_docs(t: pa.Table, n: int) -> pa.Table:
    return _with_bucket(t, t["doc_id"], n)


def _repack_bucket(g: pa.Table) -> pa.Table:
    return repack_table(g)
