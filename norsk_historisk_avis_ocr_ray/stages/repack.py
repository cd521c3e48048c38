"""Reading-order reassembly: region rows → one output row per document.

This is the engine's single wide step (reference A1): the per-region rows are
shuffled by ``groupby("doc_id")`` and each group is sorted by
``(in_offset, region_idx)`` — input-span order, then header-first /
columns-left→right within a page (``tesseract_engine.py:158-181``,
``claude_vision_engine.py:313-348``). Derived columns:

- ``combined``        — span texts joined with ``"\\n\\n"`` (reference S5)
- ``transcribed_raw`` — non-empty reflowed sections joined (reference S6,
  pre-correction; the corrector stage finalizes ``transcribed``)

Exact duplicate ``(in_offset, region_idx)`` rows are dropped (keep-first):
defensive ingest dedup for duplicated doc_id rows, which the reference got
for free from its filesystem keyed by file stem.

By this stage the stream is text-only — images were projected away inside the
OCR stage — so the shuffle never moves binary payloads.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import PART, SPAN_STRUCT

REPACKED_SCHEMA = pa.schema([
    pa.field("doc_id", pa.string()),
    pa.field("spans", pa.list_(SPAN_STRUCT)),
    pa.field("combined", pa.string()),
    pa.field("transcribed_raw", pa.string()),
    pa.field("n_errors", pa.int32()),
])


def _reflow_arrow(texts: pa.Array) -> pa.Array:
    """Vectorized ``functions.textops.reflow_text`` over an Arrow string array
    (trim → rejoin ``word-\\n`` breaks → newlines→space → squeeze spaces →
    trim), using RE2 kernels instead of a per-string Python loop."""
    t = pc.utf8_trim_whitespace(texts)
    t = pc.replace_substring_regex(t, pattern=r"-\n\s*", replacement="")
    t = pc.replace_substring_regex(t, pattern=r"\n+", replacement=" ")
    t = pc.replace_substring_regex(t, pattern=r"  +", replacement=" ")
    return pc.utf8_trim_whitespace(t)


def repack_table(tbl: pa.Table) -> pa.Table:
    """Repack region rows for one or many documents (rows need not be sorted;
    all rows of a doc must be present — the caller guarantees co-location,
    either via groupby(doc_id) or shard-local processing).

    Rows with an int32 ``schema.PART`` column (a group of shards,
    ``pipelines.sharded``) are sorted and segmented on ``(PART, doc_id)``,
    and the column is dropped: the output is each part's repacked rows in
    part order, so a doc_id in two parts gives two rows.

    Fully vectorized: one Arrow sort, numpy boundary masks, and
    ``ListArray.from_arrays`` over per-doc offset boundaries — no per-row
    Python in the engine's hottest wide-stage loop."""
    if tbl.num_rows == 0:
        return REPACKED_SCHEMA.empty_table()
    keyed = PART in tbl.column_names
    keys = ([PART] if keyed else []) + ["doc_id", "in_offset", "region_idx"]
    tbl = tbl.sort_by([(k, "ascending") for k in keys]).combine_chunks()

    doc_np = tbl["doc_id"].to_numpy(zero_copy_only=False)
    io_np = tbl["in_offset"].to_numpy(zero_copy_only=False)
    ri_np = tbl["region_idx"].to_numpy(zero_copy_only=False)
    n = len(doc_np)
    # a new document starts where (PART, doc_id) changes
    new_doc = np.ones(n, dtype=bool)
    new_doc[1:] = doc_np[1:] != doc_np[:-1]
    if keyed:
        part_np = tbl[PART].to_numpy()
        new_doc[1:] |= part_np[1:] != part_np[:-1]

    # Keep-first dedup of exact (PART, doc_id, in_offset, region_idx)
    # duplicates.
    keep = new_doc.copy()
    keep[1:] |= (io_np[1:] != io_np[:-1]) | (ri_np[1:] != ri_np[:-1])
    if not keep.all():
        tbl = tbl.filter(pa.array(keep))
        doc_np = doc_np[keep]
        new_doc = new_doc[keep]
        n = len(doc_np)

    # Document segment boundaries over the sorted, deduped rows.
    doc_starts = np.flatnonzero(new_doc)
    n_docs = len(doc_starts)
    seg_lengths = np.diff(np.append(doc_starts, n))

    # Error counts: truthy (non-null, non-empty) error strings, counted on
    # every deduped row including kind='empty' rows.
    if "error" in tbl.column_names:
        err_mask = pc.fill_null(pc.not_equal(tbl["error"], ""), False)
        err_np = err_mask.combine_chunks().to_numpy(zero_copy_only=False)
        n_errors = np.add.reduceat(err_np.astype(np.int32), doc_starts)
    else:
        n_errors = np.zeros(n_docs, dtype=np.int32)

    # Span rows: every non-'empty' region, in sorted order.
    kind_np = tbl["kind"].to_numpy(zero_copy_only=False)
    span_mask = kind_np != "empty"
    span_counts = np.add.reduceat(span_mask.astype(np.int64), doc_starts)
    span_counts[seg_lengths == 0] = 0  # defensive; segments are always >=1 row
    kept_idx = np.flatnonzero(span_mask)

    texts = pc.fill_null(tbl["text"], "").combine_chunks()
    refs = pc.fill_null(tbl["media_ref"], "").combine_chunks()
    span_text = texts.take(pa.array(kept_idx))
    span_ref = refs.take(pa.array(kept_idx))

    # offset = rank of the span within its doc (among kept spans).
    csum = np.cumsum(span_mask)
    kept_before_doc = csum[doc_starts] - span_mask[doc_starts]
    per_row_base = np.repeat(kept_before_doc, seg_lengths)
    span_offset = (csum - 1 - per_row_base)[span_mask].astype(np.int32)

    k = len(kept_idx)
    span_struct = pa.StructArray.from_arrays(
        [pa.array(["text"] * k, pa.string()), span_text, span_ref,
         pa.array(span_offset, pa.int32())],
        fields=list(SPAN_STRUCT),
    )
    list_offsets = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(span_counts, out=list_offsets[1:])
    spans_list = pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()),
                                          span_struct)

    # combined: span texts joined with "\n\n" per doc.
    text_list = pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()),
                                         span_text)
    combined = pc.binary_join(text_list, "\n\n")

    # transcribed_raw: reflowed non-empty sections joined per doc.
    reflowed = _reflow_arrow(span_text)
    ok = pc.not_equal(reflowed, "")
    ok_np = ok.to_numpy(zero_copy_only=False)
    doc_of_span = np.repeat(np.arange(n_docs), span_counts)
    counts2 = np.bincount(doc_of_span[ok_np], minlength=n_docs)
    offs2 = np.zeros(n_docs + 1, dtype=np.int32)
    np.cumsum(counts2, out=offs2[1:])
    reflow_list = pa.ListArray.from_arrays(pa.array(offs2, pa.int32()),
                                           reflowed.filter(ok))
    transcribed_raw = pc.binary_join(reflow_list, "\n\n")

    return pa.Table.from_arrays(
        [pa.array(doc_np[doc_starts].tolist(), pa.string()), spans_list,
         combined, transcribed_raw, pa.array(n_errors, pa.int32())],
        schema=REPACKED_SCHEMA,
    )
