"""Explode documents into per-span rows (the parallelism unit).

``(doc_id, spans)`` rows become one row per span, carrying ``in_offset`` (the
span's reading-order offset — explicit data, unlike the reference's implicit
list position, ``tesseract_engine.py:158-178``). Documents with an empty/null
span list emit a single ``kind='empty'`` sentinel row so they survive the
round trip and repack to an empty span list.

An int32 ``schema.PART`` column, when the input has one (the shard ordinal
of a group of shards, ``pipelines.sharded``), leads every output row; the
dataflow path has none and its rows are ``EXPLODED_SCHEMA`` exactly.

Pure Arrow kernels (``list_parent_indices`` / ``list_flatten`` /
``struct_field``) — zero Python per row.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import PART

EXPLODED_SCHEMA = pa.schema([
    pa.field("doc_id", pa.string()),
    pa.field("in_offset", pa.int32()),
    pa.field("kind", pa.string()),
    pa.field("text", pa.string()),
    pa.field("media_ref", pa.string()),
])


def explode_spans(tbl: pa.Table) -> pa.Table:
    doc_ids = tbl.column("doc_id").combine_chunks()
    spans = tbl.column("spans").combine_chunks()
    keyed = PART in tbl.column_names
    schema = (EXPLODED_SCHEMA.insert(0, pa.field(PART, pa.int32())) if keyed
              else EXPLODED_SCHEMA)
    parts = tbl.column(PART).combine_chunks() if keyed else None

    parent = pc.list_parent_indices(spans)
    flat = pc.list_flatten(spans)
    out = pa.Table.from_arrays(
        ([pc.take(parts, parent)] if keyed else []) + [
            pc.take(doc_ids, parent),
            pc.struct_field(flat, "offset").cast(pa.int32()),
            pc.fill_null(pc.struct_field(flat, "kind"), ""),
            pc.fill_null(pc.struct_field(flat, "text"), ""),
            pc.fill_null(pc.struct_field(flat, "media_ref"), ""),
        ],
        schema=schema,
    )

    lengths = pc.fill_null(pc.list_value_length(spans), 0)
    empty_mask = pc.equal(lengths, 0)
    if pc.any(empty_mask).as_py():
        empty_ids = pc.filter(doc_ids, empty_mask)
        n = len(empty_ids)
        sentinel = pa.Table.from_arrays(
            ([pc.filter(parts, empty_mask)] if keyed else []) + [
                empty_ids,
                pa.array([0] * n, pa.int32()),
                pa.array(["empty"] * n, pa.string()),
                pa.array([""] * n, pa.string()),
                pa.array([""] * n, pa.string()),
            ],
            schema=schema,
        )
        out = pa.concat_tables([out, sentinel])
    return out
