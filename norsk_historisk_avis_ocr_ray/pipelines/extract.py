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
           pages given  pages ─ map_batches(LayoutOcrStage | page_ocr_batch)
                        media spans ─ join(on media_ref) ─ finalize_media
                        other spans ─ passthrough_spans ─ union
      └─ map_batches(clean_batch)                      stateless T1 cleanup
      └─ groupby(rbucket).map_groups(repack)           THE one shuffle (text-only)
      └─ map_batches(correct_batch | CorrectorStage)   normalizer

With pages, OCR is driven by the *pages* dataset: image bytes stream
block-local through the OCR stage and are never broadcast, looked up or
shuffled; the all-to-alls (join + groupby) move text only.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data import Dataset

from ..functions import scale
from ..functions.textops import clean_batch
from ..stages.correct import CorrectorStage, correct_batch
from ..stages.explode import explode_spans
from ..stages.ocr import (PAGE_COLUMNS, LayoutOcrStage, MockBarcodeOcr,
                          finalize_media, page_ocr_batch,
                          passthrough_spans, resolve_spans)
from ..stages.repack import repack_table


def extract(
    docs: Dataset,
    pages: "str | pa.Table | Dataset | None" = None,
    *,
    engine_factory: Callable[[], Any] = MockBarcodeOcr,
    ocr_concurrency: int | tuple[int, int] = 4,
    ocr_batch_size: int = 32,
    corrector_concurrency: int | tuple[int, int] | None = None,
    correction: bool = True,
    emit_diff: bool = True,
    media_resolution: str = "auto",
    ocr_compute: str = "actors",
    span_checkpoint: str | None = None,
) -> Dataset:
    """documents + pages → output Dataset (doc_id, spans, combined,
    transcribed, corrected, n_edits, diff, n_errors).

    pages: a parquet path (file or directory), a pyarrow Table or a Dataset
    with ``media_ref, image, width, height, codec``; None for text-only
    input. Text-only input maps spans straight to regions (no OCR stage; a
    media span becomes a ``MissingMedia`` error row). With pages, media spans
    are resolved by a join on ``media_ref`` against the page kernel's region
    rows.

    media_resolution: kept for callers that name the join path; 'auto' and
    'dataflow' are the same, anything else is a ``ValueError``.

    ocr_compute: 'actors' (default) runs OCR as an actor pool of
    ``ocr_concurrency`` actors; 'tasks' runs it as elastic Ray tasks with a
    per-worker-process engine cache (``stages.ocr.page_ocr_batch``), fused
    with the pages read — no pool sizing. Right whenever engine setup is
    cheap enough to pay once per worker process (mock/tesseract); keep
    'actors' for heavyweight engines (LLM clients with connection state).

    corrector_concurrency: None (default) runs the corrector as tasks fused
    with the repack; N runs it as an actor pool of N.

    span_checkpoint: the join path consumes the exploded span stream in TWO
    branches (media spans → join; other spans → passthrough), and a lazy
    Dataset re-executes its plan per consumer. With a directory given, the
    stream is checkpointed to parquet there once (streaming block-by-block
    write — disk/DFS-resident, resumable) and both branches read it back
    with column pruning. With None (default), each branch recomputes the
    read+explode — 2× source-read I/O, zero pin. Round 2 used
    ``materialize()`` here, which pinned the whole corpus-sized span stream
    in the object store — disqualifying at 100× scale.
    """
    if media_resolution not in ("auto", "dataflow"):
        raise ValueError(f"unknown media_resolution {media_resolution!r}; "
                         "expected 'auto' or 'dataflow'")
    ocr_actors = pages is not None and ocr_compute != "tasks"

    # Deadlock guard: actor pools that reserve every CPU of the session
    # starve the task operators (read/clean/join/groupby) and the streaming
    # executor stalls forever. Clamp the actors (OCR pool in the actor form,
    # corrector pool) to session CPUs minus task headroom; a corrector pool
    # that still does not fit falls back to the task form.
    avail = int(ray.cluster_resources().get("CPU", 8))
    budget = max(1, avail - max(1, avail // 8))
    n_corr = 0 if corrector_concurrency is None else _int_concurrency(corrector_concurrency)
    n_ocr = _int_concurrency(ocr_concurrency) if ocr_actors else 0
    if n_ocr + n_corr > budget:
        if ocr_actors:
            ocr_concurrency = n_ocr = max(1, budget - n_corr)
        if n_ocr + n_corr > budget:
            corrector_concurrency = None

    exploded = docs.map_batches(explode_spans, batch_format="pyarrow")

    if pages is None:
        regions = exploded.map_batches(resolve_spans, batch_format="pyarrow")
    else:
        if isinstance(pages, str):
            pages_ds = ray.data.read_parquet(_lpt_parquet_paths(pages),
                                             columns=PAGE_COLUMNS)
        elif isinstance(pages, Dataset):
            pages_ds = pages.select_columns(PAGE_COLUMNS)
        else:
            pages_ds = ray.data.from_arrow(pages.select(PAGE_COLUMNS))
        if ocr_actors:
            media_texts = pages_ds.map_batches(
                LayoutOcrStage,
                fn_constructor_kwargs={"engine_factory": engine_factory},
                batch_format="pyarrow",
                batch_size=ocr_batch_size,
                concurrency=ocr_concurrency,
                num_cpus=1,
            )
        else:
            media_texts = pages_ds.map_batches(
                partial(page_ocr_batch, engine_factory=engine_factory),
                batch_format="pyarrow",
                batch_size=None,  # whole read block per call → the executor
                # fuses ReadParquet->page_ocr_batch into ONE task op: image
                # bytes never cross the object store at all
            )
        # Two consumers of the exploded stream (see span_checkpoint in the
        # docstring): parquet checkpoint when a dir is given, else per-branch
        # recompute. Never a full-stream materialize — that pins the
        # corpus-sized span stream in the object store.
        if span_checkpoint is not None:
            ckpt = os.path.join(span_checkpoint, "exploded_spans")
            exploded.write_parquet(ckpt)
            media_src = ray.data.read_parquet(
                ckpt, columns=["doc_id", "in_offset", "kind", "media_ref"])
            rest_src = ray.data.read_parquet(ckpt)
        else:
            media_src = exploded
            rest_src = exploded
        media_spans = media_src.map_batches(_media_keys, batch_format="pyarrow")
        # cluster-size-aware: at least the cluster-wide join default, but
        # never fewer partitions than the OCR pool can feed concurrently
        n_parts = max(scale.join_partitions(),
                      _int_concurrency(ocr_concurrency) // 6)
        joined = (media_spans
                  .join(media_texts, join_type="left_outer",
                        num_partitions=n_parts, on=("media_ref",))
                  .filter(expr="is_valid(doc_id)")
                  .map_batches(finalize_media, batch_format="pyarrow"))
        rest = rest_src.filter(expr="kind != 'media'").map_batches(
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

    if corrector_concurrency is None:
        # task form: fuses with the repack stage and scales elastically on
        # CPUs the OCR actor pool leaves free (normalizer cached per process)
        return repacked.map_batches(
            partial(correct_batch, enabled=correction, emit_diff=emit_diff),
            batch_format="pyarrow", batch_size=256)

    return repacked.map_batches(
        CorrectorStage,
        fn_constructor_kwargs={"enabled": correction, "emit_diff": emit_diff},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=corrector_concurrency,
        num_cpus=1,
    )


def _media_keys(t: pa.Table) -> pa.Table:
    """The join's left side: the media spans of a span batch. A batch with
    none yields one all-null row instead — Ray's hash join learns the left
    schema from the first block it shuffles and fails if that block is
    empty. The null rows match nothing and are dropped after the join."""
    media = t.filter(pc.equal(t["kind"], "media")).select(
        ["doc_id", "in_offset", "media_ref"])
    return media if media.num_rows else pa.Table.from_pylist([{}], media.schema)


def _int_concurrency(c) -> int:
    return c[1] if isinstance(c, tuple) else int(c)


def _lpt_parquet_paths(path: str) -> "str | list[str]":
    """Largest-file-first ordering for a pages directory (LPT schedule,
    same rationale as sharded.list_shards): read tasks are launched roughly
    in input order, so heavy page files land early and the final OCR wave
    holds only small ones — scheduling only, per-file results unchanged.
    Non-directories (single file, remote URI) and directories with
    subdirectories (partitioned layouts) pass through untouched."""
    if not os.path.isdir(path):
        return path
    entries = [os.path.join(path, f) for f in os.listdir(path)]
    files = [p for p in entries if p.endswith(".parquet") and os.path.isfile(p)]
    if not files or any(os.path.isdir(p) for p in entries):
        return path  # nested layout: let read_parquet walk the directory
    return sorted(files, key=lambda p: -os.path.getsize(p))
