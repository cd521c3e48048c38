"""Arrow schemas for the span data model.

The input/output document shape follows BASELINE.json ``input_hint``:
``(doc_id: string, spans: array<struct<kind, text, media_ref, offset:int32>>)``.
Reading order within a document is carried *as data* by ``offset`` (the
reference encodes it implicitly as Python-list position built serially,
``tesseract_engine.py:158-181``) — making it explicit is what lets the engine
parallelize per-region work and restore order with one ``groupby(doc_id)``.
"""

from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        pa.field("kind", pa.string()),       # 'text' | 'media'
        pa.field("text", pa.string()),       # span text for kind='text'; '' for media
        pa.field("media_ref", pa.string()),  # page-image key for kind='media'; provenance on derived spans
        pa.field("offset", pa.int32()),      # 0-based reading-order position within the doc
    ]
)

DOCUMENTS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
    ]
)

# The int32 shard ordinal that leads the rows of a group of shards
# (``pipelines.sharded``): ``explode_spans`` carries it, ``resolve_spans``
# joins on it and ``repack_table`` segments on it. A reserved name, so a
# caller's own column (a hive ``part=`` directory, a newspaper's part
# number) never switches the span stages to keyed rows.
PART = "__part"

# Media side table (resolved via spans.media_ref). Images are stored as a raw
# zlib-compressed grayscale byte buffer + dimensions — a deterministic codec
# that needs no external imaging library; PNG/JPEG codecs can be plugged in
# behind the same (decode → HxW uint8 ndarray) contract.
PAGES_SCHEMA = pa.schema(
    [
        pa.field("media_ref", pa.string()),
        pa.field("image", pa.binary()),    # zlib(raw uint8 H*W, row-major)
        pa.field("width", pa.int32()),
        pa.field("height", pa.int32()),
        pa.field("codec", pa.string()),    # raw-zlib | png | jpeg | tiff | pdf (sources.codec)
        pa.field("n_cols", pa.int32()),    # ground-truth column count (layout unit tests)
        pa.field("has_title", pa.bool_()),
        pa.field("dpi", pa.int32()),
    ]
)

# Exploded per-region rows flowing between the layout and OCR stages.
REGION_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("in_offset", pa.int32()),    # offset of the originating input span
        pa.field("region_idx", pa.int32()),   # 0 = header/passthrough text, 1..k = columns left→right
        pa.field("kind", pa.string()),        # 'text' | 'empty'
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("image", pa.binary()),       # region crop (raw-zlib) — projected away right after OCR
        pa.field("crop_width", pa.int32()),
        pa.field("crop_height", pa.int32()),
    ]
)

OUTPUT_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_STRUCT)),
        pa.field("combined", pa.string()),
        pa.field("transcribed", pa.string()),
        pa.field("corrected", pa.bool_()),   # whether the correction pass changed/produced transcribed
        pa.field("diff", pa.string()),       # human-readable correction diff (audit column)
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()
