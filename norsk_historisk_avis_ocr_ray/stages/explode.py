"""Explode documents into per-span rows (the parallelism unit).

``(doc_id, spans)`` rows become one ``schema.SPAN_ROW_SCHEMA`` row per span,
led by its document's partition and carrying ``in_offset`` (the span's
reading-order offset — explicit data, unlike the reference's implicit list
position, ``tesseract_engine.py:158-178``); its ``region_idx``, ``error``
and ``n_cols`` are null until ``resolve_spans``. Documents with an
empty/null span list emit a single ``kind='empty'`` sentinel row so they
survive the round trip and repack to an empty span list.

Pure Arrow kernels (``list_parent_indices`` / ``list_flatten`` /
``struct_field``) — zero Python per row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schema import SPAN_ROW_SCHEMA


def explode_spans(docs: pa.Table, parts: pa.Array | None = None) -> pa.Table:
    """``docs``' ``doc_id`` and ``spans`` → span rows; ``parts`` is each
    document row's int32 partition (None: partition 0)."""
    doc_ids = docs.column("doc_id").combine_chunks()
    spans = docs.column("spans").combine_chunks()
    if parts is None:
        parts = pa.array(np.zeros(len(doc_ids), np.int32))

    parent = pc.list_parent_indices(spans)
    flat = pc.list_flatten(spans)
    out = _span_rows(
        pc.take(parts, parent),
        pc.take(doc_ids, parent),
        pc.struct_field(flat, "offset").cast(pa.int32()),
        pc.fill_null(pc.struct_field(flat, "kind"), ""),
        pc.fill_null(pc.struct_field(flat, "text"), ""),
        pc.fill_null(pc.struct_field(flat, "media_ref"), ""),
    )

    lengths = pc.fill_null(pc.list_value_length(spans), 0)
    empty_mask = pc.equal(lengths, 0)
    if pc.any(empty_mask).as_py():
        empty_ids = pc.filter(doc_ids, empty_mask)
        n = len(empty_ids)
        sentinel = _span_rows(
            pc.filter(parts, empty_mask),
            empty_ids,
            pa.array(np.zeros(n, np.int32)),
            pa.array(["empty"] * n, pa.string()),
            pa.array([""] * n, pa.string()),
            pa.array([""] * n, pa.string()),
        )
        # a table concat keeps both tables' buffers; an array concat would
        # copy every span's text
        out = pa.concat_tables([out, sentinel])
    return out


def _span_rows(parts, doc_ids, offsets, kinds, texts, refs) -> pa.Table:
    n = len(doc_ids)
    return pa.Table.from_arrays(
        [parts, doc_ids, offsets, pa.nulls(n, pa.int32()), kinds, texts,
         refs, pa.nulls(n, pa.string()), pa.nulls(n, pa.int32())],
        schema=SPAN_ROW_SCHEMA)
