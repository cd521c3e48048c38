"""Shard-local extraction: the zero-shuffle scale path for co-partitioned
corpora, and the unit of resumability.

When documents and their pages are co-partitioned into shards (the natural
ingest layout at 10^12-doc scale: partition by hash(doc_id), keep each doc's
media in the same shard), the whole extraction — explode → layout+OCR →
clean → repack → correct — is shard-local: every row of a document lives in
exactly one shard, so reading-order reassembly needs **no groupby shuffle at
all**. The shards are dealt into at most ``GROUPS_PER_CPU`` groups per CPU,
one Ray task per group running its shards in turn: the per-task dispatch
cost is paid per group, not per shard, while several groups per CPU still
let the elastic task pool even out skew (a 6-column broadsheet-heavy shard
just takes longer; the other groups fill the idle cores).

Partitioning assumption (documented per the operator contract): all spans of
a ``doc_id`` and all pages they reference are inside the shard. Inputs that
don't satisfy it must use ``pipelines.extract.extract`` (the general
shuffle-based pipeline); a cross-shard ``media_ref`` here degrades to a
per-row MissingMedia error, never a wrong span sequence.

The same loader and per-shard function (``load_shard`` → ``process_shard``)
are the body of the resumable runner (``pipelines.run``): output is written
per shard and committed to a manifest. The loader streams a shard's pages
in record batches of about ``PAGE_BATCH_BYTES`` of payload (``PageStream``),
so no Arrow copy of the whole ``image`` column is ever held beside the
parquet reader's decompressed data page.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.scale import cluster_cpus
from ..functions.textops import clean_batch
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
    """One ``list_shards`` entry → (documents, pages or None). The documents
    are read whole; the pages are a ``PageStream``, read as the page kernel
    consumes them."""
    docs = pq.read_table(shard["docs_file"])
    if not shard["pages_file"]:
        return docs, None
    return docs, PageStream(shard["pages_file"])


def process_shard(
    docs: pa.Table,
    pages: pa.Table | Iterable[pa.RecordBatch] | None,
    engine: Any,
    correction: bool = True,
    emit_diff: bool = True,
) -> pa.Table:
    """The full extraction for one co-partitioned shard, in-process.
    ``pages`` is a table or a stream of record batches (``load_shard``'s
    ``PageStream``); it is consumed once, by ``ocr_pages``, before the span
    stages run."""
    page_regions = None if pages is None else ocr_pages(pages, engine)
    regions = clean_batch(resolve_spans(explode_spans(docs), page_regions))
    repacked = repack_table(regions)
    return CorrectorStage(enabled=correction, emit_diff=emit_diff)(repacked)


def _shard_task_fn(engine_factory: Callable[[], Any], correction: bool,
                   emit_diff: bool):
    def fn(batch: pa.Table) -> pa.Table:
        engine = cached_engine(engine_factory)
        return pa.concat_tables([
            process_shard(*load_shard(shard), engine, correction=correction,
                          emit_diff=emit_diff)
            for shard in batch.to_pylist()])
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
    runs its shards in turn and returns their rows concatenated; a corpus
    with at most ``GROUPS_PER_CPU × CPUs`` shards keeps one task per shard.
    Per-shard output is the same whatever the grouping.

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
