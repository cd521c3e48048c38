"""Shard-local extraction: the zero-shuffle scale path for co-partitioned
corpora, and the unit of resumability.

When documents and their pages are co-partitioned into shards (the natural
ingest layout at 10^12-doc scale: partition by hash(doc_id), keep each doc's
media in the same shard), the whole extraction — explode → layout+OCR →
clean → repack → correct — is shard-local: every row of a document lives in
exactly one shard, so reading-order reassembly needs **no groupby shuffle at
all**. The shards are dealt into at most ``GROUPS_PER_CPU`` groups per CPU,
one Ray task per group: the per-task dispatch cost is paid per group, not
per shard, while several groups per CPU still let the elastic task pool
even out skew (a 6-column broadsheet-heavy shard just takes longer; the
other groups fill the idle cores).

A task loads its group's shards one at a time (``load_shard``: the docs
read and the pages stream) and ``process_shard`` runs each shard's pages
through the page kernel in turn. The span stages — explode → resolve →
clean → repack → correct — then run **once over a run of consecutive
shards** (the whole group, unless its text passes ``SPAN_PASS_BYTES``),
each row's ``schema.PART`` its shard's ordinal in the run: resolve joins on
``(PART, media_ref)`` and repack segments on ``(PART, doc_id)``, so the
output is the concatenation of the per-shard outputs, row for row, for any
grouping. The fixed cost of each stage's Arrow calls is paid per run, not
per shard.

Partitioning assumption (documented per the operator contract): all spans of
a ``doc_id`` and all pages they reference are inside the shard. Inputs that
don't satisfy it must use ``pipelines.extract.extract`` (the general
shuffle-based pipeline); a cross-shard ``media_ref`` here degrades to a
per-row MissingMedia error, never a wrong span sequence, and a doc_id in two
shards gives one row per shard, also when the shards share a group.

The same loader and per-shard function (``load_shard`` → ``process_shard``)
are the body of the resumable runner (``pipelines.run``), where each shard
is a group of one: output is written per shard and committed to a manifest.
The loader streams a shard's pages in record batches of about
``PAGE_BATCH_BYTES`` of payload (``PageStream``), so no Arrow copy of the
whole ``image`` column is ever held beside the parquet reader's
decompressed data page.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.scale import cluster_cpus
from ..functions.textops import clean_batch
from ..schema import DOCUMENTS_SCHEMA, PART, SPAN_STRUCT
from ..stages.correct import CorrectorStage
from ..stages.explode import explode_spans
from ..stages.ocr import (PAGE_COLUMNS, MockBarcodeOcr, cached_engine,
                          ocr_pages, resolve_spans)
from ..stages.repack import repack_table

if TYPE_CHECKING:  # ray.data (and pandas with it) is imported on first use
    from ray.data import Dataset

# Tasks per CPU for ``extract_sharded``. Each Ray Data task adds a fixed
# dispatch gap to its shards' work (12-14 ms on a 1-CPU host, against
# ~26 ms of work for a text-only shard), so fewer tasks are cheaper; more
# than one per CPU keeps the last wave short when group costs are skewed
# (a core whose groups drew light shards takes another group while a heavy
# one finishes).
GROUPS_PER_CPU = 4

# Page payload per record batch of a shard's pages stream. The parquet
# reader holds the decompressed data page while it is read; each batch adds
# only its own pages beside it (a whole-table read holds the page and a full
# Arrow copy of the column). Fewer pages a batch hold less: reading one
# 172-page file of 1.5 MB lossless pages grew RSS 308 / 368 / 373 MB at
# 1 / 2 / 4 pages a batch. A batch costs ~0.35 ms (1-CPU host), which 2 MiB
# batches of ~50 raw-zlib pages (40 KB each) make negligible.
PAGE_BATCH_BYTES = 2 << 20

# Input text per span pass: a group's shards run through the span stages in
# consecutive runs whose documents and page regions hold at most this many
# Arrow bytes (a shard larger than that is a run of its own). Each stage
# builds its string and list arrays over the whole run, with int32 offsets,
# so a run's text must stay far below 2 GiB, and the run's intermediate
# tables are all held at once (a few times its input). A text-only shard
# of the benchmark's corpus is ~40 KB, so any group of those is one run.
SPAN_PASS_BYTES = 64 << 20


def list_shards(corpus_dir: str) -> list[dict]:
    """Pair documents/ and pages/ shard files by part number.

    Shards are returned **largest pages-file first** (LPT order). The task
    pool schedules blocks roughly in input order, so putting the heaviest
    shards (broadsheet-dense → biggest image payload → longest layout+OCR
    time) at the front means the final wave holds only small shards — the
    straggler tail that otherwise idles ``ncpu - 1`` cores for one big-shard
    duration shrinks to a small-shard duration. Pure scheduling; per-shard
    results are unchanged and the output order was never guaranteed.

    A subdirectory under documents/ raises ``ValueError``: its files are not
    shards of this layout, and skipping them would drop their documents."""
    docs_dir = os.path.join(corpus_dir, "documents")
    pages_dir = os.path.join(corpus_dir, "pages")
    pages = {}
    if os.path.isdir(pages_dir):
        for f in os.listdir(pages_dir):
            if f.endswith(".parquet"):
                pages[f] = os.path.join(pages_dir, f)
    shards = []
    for f in sorted(os.listdir(docs_dir)):
        path = os.path.join(docs_dir, f)
        if os.path.isdir(path):
            raise ValueError(f"nested directory {path!r} under documents/; "
                             "shards must be flat part files")
        if f.endswith(".parquet"):
            shards.append({"shard": f.rsplit(".", 1)[0],
                           "docs_file": path,
                           "pages_file": pages.get(f, "")})
    def weight(s: dict) -> int:
        try:
            return os.path.getsize(s["pages_file"]) if s["pages_file"] \
                else os.path.getsize(s["docs_file"])
        except OSError:
            return 0
    shards.sort(key=weight, reverse=True)
    return shards


class PageStream:
    """A pages file as a lazy stream of ``PAGE_COLUMNS`` record batches.

    The batch size comes from the footer: the ``image`` column's
    uncompressed size over its row count is the mean payload per page, and
    a batch holds about ``PAGE_BATCH_BYTES`` of it (at least one page).
    ``num_rows`` is the footer's page count. Only the footer is read here;
    each iteration opens the file (reusing the footer), reads it anew and
    closes it when done, and a corrupt page raises from the iteration,
    never ends it early."""

    def __init__(self, path: str):
        with pq.ParquetFile(path) as f:
            meta, names = f.metadata, f.schema_arrow.names
        # iter_batches skips a column it cannot find; a whole read raised
        missing = set(PAGE_COLUMNS) - set(names)
        if missing:
            raise ValueError(f"pages file {path!r} has no column(s) "
                             f"{sorted(missing)}")
        self.path, self._meta = path, meta
        self.num_rows = meta.num_rows
        payload = sum(rg.column(i).total_uncompressed_size
                      for rg in map(meta.row_group, range(meta.num_row_groups))
                      for i in range(rg.num_columns)
                      if rg.column(i).path_in_schema == "image")
        self.batch_size = max(1, min(self.num_rows, PAGE_BATCH_BYTES
                                     * self.num_rows // max(payload, 1)))

    def __iter__(self) -> Iterator[pa.RecordBatch]:
        with pq.ParquetFile(self.path, metadata=self._meta) as f:
            yield from f.iter_batches(batch_size=self.batch_size,
                                      columns=PAGE_COLUMNS)


def load_shard(shard: dict) -> tuple[pa.Table, PageStream | None]:
    """One ``list_shards`` entry → (documents, pages or None). The
    documents' ``doc_id`` and ``spans`` are read whole; the pages are a
    ``PageStream``, read as the page kernel consumes them."""
    with pq.ParquetFile(shard["docs_file"]) as f:
        docs = f.read(columns=["doc_id", "spans"], use_threads=False)
    if not shard["pages_file"]:
        return docs, None
    return docs, PageStream(shard["pages_file"])


def process_shard(
    shards: Iterable[tuple[pa.Table,
                           pa.Table | Iterable[pa.RecordBatch] | None]],
    engine: Any,
    correction: bool = True,
    emit_diff: bool = True,
) -> pa.Table:
    """The full extraction for a group of co-partitioned shards, in process;
    one shard is a group of one. Each entry is a shard's documents and its
    pages: a table, a stream of record batches (``load_shard``'s
    ``PageStream``) or None. ``shards`` is consumed lazily, one entry at a
    time.

    Each shard's pages are consumed once, by ``ocr_pages``, one shard after
    the other. The span stages then run once over each run of consecutive
    shards whose documents and page regions stay within
    ``SPAN_PASS_BYTES``, every row keyed by its shard's position in the run
    (``schema.PART``). The output is the concatenation of what each shard
    alone gives, in ``shards`` order."""
    corrector = CorrectorStage(enabled=correction, emit_diff=emit_diff)
    outs, run, run_bytes = [], [], 0
    for shard_docs, pages in shards:
        docs = _span_docs(shard_docs)
        regions = None if pages is None else ocr_pages(pages, engine)
        nbytes = docs.nbytes + (0 if regions is None else regions.nbytes)
        if run and run_bytes + nbytes > SPAN_PASS_BYTES:
            outs.append(_span_pass(run, corrector))
            run, run_bytes = [], 0
        run.append((docs, regions))
        run_bytes += nbytes
    outs.append(_span_pass(run, corrector))
    return outs[0] if len(outs) == 1 else pa.concat_tables(outs)


def _span_pass(run: list[tuple[pa.Table, pa.Table | None]],
               corrector: CorrectorStage) -> pa.Table:
    """explode → resolve → clean → repack → correct, once over a run of
    shards' documents and page regions (None: the shard has no pages)."""
    parts = np.repeat(np.arange(len(run), dtype=np.int32),
                      [d.num_rows for d, _ in run])
    rows = [explode_spans(pa.concat_tables([d for d, _ in run]),
                          pa.array(parts))]
    for part, (_, r) in enumerate(run):
        if r is not None:
            rows.append(r.set_column(r.schema.get_field_index(PART), PART,
                                     pa.array(np.full(r.num_rows, part,
                                                      np.int32))))
    regions = clean_batch(resolve_spans(pa.concat_tables(rows)))
    return corrector(repack_table(regions))


def _span_docs(docs: pa.Table) -> pa.Table:
    """``docs``' ``doc_id`` and ``spans`` in ``DOCUMENTS_SCHEMA``: a group's
    shards concatenate only in one schema. A shard in another one (another
    span field order, wider types, extra span fields) has its span fields
    taken by name, as ``explode_spans`` reads them."""
    docs = docs.select(["doc_id", "spans"])
    if docs.schema.equals(DOCUMENTS_SCHEMA):
        return docs
    spans = docs["spans"].combine_chunks()
    items = pc.list_flatten(spans)
    items = pa.StructArray.from_arrays(
        [pc.struct_field(items, f.name).cast(f.type) for f in SPAN_STRUCT],
        fields=list(SPAN_STRUCT), mask=pc.is_null(items))
    offsets = np.zeros(len(spans) + 1, np.int32)
    np.cumsum(pc.fill_null(pc.list_value_length(spans), 0), out=offsets[1:])
    spans = pa.ListArray.from_arrays(offsets, items, mask=pc.is_null(spans))
    return pa.Table.from_arrays([docs["doc_id"].cast(pa.string()), spans],
                                schema=DOCUMENTS_SCHEMA)


def _shard_task_fn(engine_factory: Callable[[], Any], correction: bool,
                   emit_diff: bool):
    def fn(batch: pa.Table) -> pa.Table:
        engine = cached_engine(engine_factory)
        shards = (load_shard(shard) for shard in batch.to_pylist())
        return process_shard(shards, engine, correction=correction,
                             emit_diff=emit_diff)
    return fn


def extract_sharded(
    corpus_dir: str,
    *,
    engine_factory: Callable[[], Any] = MockBarcodeOcr,
    correction: bool = True,
    emit_diff: bool = True,
) -> Dataset:
    """Co-partitioned corpus directory → output Dataset, one task per group
    of shards.

    The LPT-ordered shards are dealt round-robin into ``n = min(shards,
    GROUPS_PER_CPU × CPUs)`` groups (group ``i`` is ``shards[i::n]``, so
    every group starts with one of the heaviest shards and the groups'
    totals stay close). Each group is one source block and one task, which
    loads its shards in turn and runs them through ``process_shard`` as one
    group; a corpus with at most ``GROUPS_PER_CPU × CPUs`` shards keeps one
    task per shard. The rows are the same whatever the grouping.

    Tasks (not actors): the engine is cached per worker process, and the
    elastic task pool uses every free CPU — there is no pool size to
    misconfigure and no stage can starve another.
    """
    import ray.data

    shards = list_shards(corpus_dir)
    if not shards:
        raise ValueError(f"no document shards under {corpus_dir!r}")
    n = min(len(shards), GROUPS_PER_CPU * cluster_cpus())
    # one block per group at the source, so one task per group and no
    # repartition barrier before the first task starts
    ds = ray.data.from_arrow([pa.Table.from_pylist(shards[i::n])
                              for i in range(n)])
    return ds.map_batches(
        _shard_task_fn(engine_factory, correction, emit_diff),
        batch_format="pyarrow", batch_size=None,
    )
