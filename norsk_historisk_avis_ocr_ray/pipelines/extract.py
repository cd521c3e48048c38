"""The general extraction pipeline, Ray-Data-native, for inputs that are
not co-partitioned into shards (``pipelines.sharded`` is the zero-shuffle
path for those that are). Both share the page kernel and the span
resolution of ``stages.ocr``.

Dataset-level composition (SURVEY.md §3.4):

    documents (doc_id, spans)
      └─ map_batches(explode_spans)                    stateless, Arrow kernels
      └─ spans → region rows, one of two cases:
           pages=None   map_batches(resolve_spans)     text-only: no OCR, a
                                                       media span is MissingMedia
           pages given  pages ─ map_batches(LayoutOcrStage(engine_factory))
                        media spans ─ join(on media_ref) ─ finalize_media
                        other spans ─ passthrough_spans ─ union
      └─ map_batches(clean_batch)                      stateless T1 cleanup
      └─ groupby(rbucket).map_groups(repack)           THE one shuffle (text-only)
      └─ map_batches(correct_batch)                    normalizer

Every operator is a task operator. With pages, OCR is driven by the *pages*
dataset: each page's bytes go from its read task to one OCR task and are
never broadcast, looked up or shuffled; the all-to-alls (join + groupby)
move text only.
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
from ..stages.correct import correct_batch
from ..stages.explode import explode_spans
from ..stages.ocr import (PAGE_COLUMNS, PAGE_REGION_SCHEMA, LayoutOcrStage,
                          MockBarcodeOcr, finalize_media, passthrough_spans,
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
    media span becomes a ``MissingMedia`` error row). With pages, media spans
    are resolved by a join on ``media_ref`` against the page kernel's region
    rows.

    Every stage runs as Ray tasks: OCR is ``LayoutOcrStage(engine_factory)``
    with one engine per worker process (``stages.ocr.cached_engine``), the
    corrector is ``correct_batch``. There is no pool to size, so no stage
    can starve another of CPUs.

    ocr_concurrency, ocr_batch_size, media_resolution: ignored; kept because
    the dataflow pass of ``perfbench/session.py`` still passes them.
    ``media_resolution`` other than 'auto' or 'dataflow' is a ``ValueError``.

    The join path consumes the exploded span stream in two branches (media
    spans → join; other spans → passthrough), and a lazy Dataset re-executes
    its plan per consumer: each branch recomputes the read + explode rather
    than pinning the corpus-sized span stream in the object store, as
    ``materialize()`` would.
    """
    if media_resolution not in ("auto", "dataflow"):
        raise ValueError(f"unknown media_resolution {media_resolution!r}; "
                         "expected 'auto' or 'dataflow'")

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
        # OCR tasks. Each side of the join starts with an all-null row, an
        # input block that is ready before any task ends, so the join's first
        # block on either side is never empty, even when no page or no
        # document has rows.
        media_texts = ray.data.from_arrow(_null_row(PAGE_REGION_SCHEMA)).union(
            pages_ds.map_batches(LayoutOcrStage(engine_factory),
                                 batch_format="pyarrow", batch_size=None))
        docs_schema = docs.schema()
        doc_id_type = docs_schema.types[docs_schema.names.index("doc_id")]
        media_spans = ray.data.from_arrow(_null_row(pa.schema([
            ("doc_id", doc_id_type), ("in_offset", pa.int32()),
            ("media_ref", pa.string())]))).union(
            exploded.map_batches(_media_keys, batch_format="pyarrow"))
        # The join moves text only, so its aggregators reserve no CPU: Ray's
        # default of up to half the session's CPUs starves the read → OCR
        # tasks on a small or busy session and the executor stalls.
        joined = (media_spans
                  .join(media_texts, join_type="left_outer",
                        num_partitions=scale.join_partitions(),
                        on=("media_ref",),
                        aggregator_ray_remote_args={
                            "num_cpus": 0, "scheduling_strategy": "SPREAD"})
                  .filter(expr="is_valid(doc_id)")
                  .map_batches(finalize_media, batch_format="pyarrow"))
        rest = exploded.filter(expr="kind != 'media'").map_batches(
            passthrough_spans, batch_format="pyarrow")
        regions = joined.union(rest)

    cleaned = regions.map_batches(clean_batch, batch_format="pyarrow")

    # BUCKETED repack: groupby(doc_id) pays ~0.4 ms of per-group Python per
    # document (13 s at this corpus's 32.5k docs — see functions/combine.py);
    # repack_table is already multi-doc vectorized, so shuffle on a bounded
    # blake2b bucket of doc_id instead — many docs per group call, identical
    # output (bucket is a pure function of doc_id, co-location preserved).
    n_rbuckets = max(64, scale.read_blocks(2.0))

    def _bucket_docs(t: pa.Table) -> pa.Table:
        from ..functions.dedup import _hash64

        cache: dict = {}
        ids = t["doc_id"].to_pylist()
        b = np.fromiter(
            (cache.get(d) if d in cache
             else cache.setdefault(d, _hash64(d) % n_rbuckets)
             for d in ids), np.int64, len(ids))
        return t.append_column("rbucket", pa.array(b))

    def _repack_bucket(g: pa.Table) -> pa.Table:
        return repack_table(g.drop_columns(["rbucket"]))

    repacked = (cleaned.map_batches(_bucket_docs, batch_format="pyarrow")
                       .groupby("rbucket")
                       .map_groups(_repack_bucket, batch_format="pyarrow"))
    return repacked.map_batches(
        partial(correct_batch, enabled=correction, emit_diff=emit_diff),
        batch_format="pyarrow", batch_size=256)


def _slices(t: pa.Table, n: int) -> list[pa.Table]:
    """``t`` as up to ``n`` zero-copy row slices (one, empty, for no rows)."""
    step = max(1, -(-t.num_rows // n))
    return [t.slice(i, step) for i in range(0, max(1, t.num_rows), step)]


def _one_row_if_empty(t: pa.Table) -> pa.Table:
    """``t``, or one all-null row if it has none: Ray's hash join learns
    each side's schema from the first block it shuffles and fails if that
    block is empty. Null keys match nothing; the left side's null rows are
    dropped after the join by ``is_valid(doc_id)``."""
    return t if t.num_rows else _null_row(t.schema)


def _null_row(schema: pa.Schema) -> pa.Table:
    return pa.Table.from_pylist([{}], schema)


def _media_keys(t: pa.Table) -> pa.Table:
    """The join's left side: the media spans of a span batch."""
    return _one_row_if_empty(t.filter(pc.equal(t["kind"], "media")).select(
        ["doc_id", "in_offset", "media_ref"]))

