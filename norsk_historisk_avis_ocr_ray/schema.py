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

# The partition that leads every span row: a shard's ordinal in a span pass
# (``pipelines.sharded``) or a hash bucket (``pipelines.extract``).
# ``resolve_spans`` joins on ``(PART, media_ref)`` and ``repack_table``
# segments on ``(PART, doc_id)``. A reserved name, so a caller's own
# ``part`` column (a hive ``part=`` directory, a newspaper's part number)
# is never read as one.
PART = "__part"

# The one row shape the span stages pass along. An exploded span has a null
# ``region_idx``; a page region (``ocr_pages``) has a null ``doc_id`` and
# ``in_offset`` and partition 0; a resolved region has every column set.
SPAN_ROW_SCHEMA = pa.schema(
    [
        pa.field(PART, pa.int32()),
        pa.field("doc_id", pa.string()),
        pa.field("in_offset", pa.int32()),   # the span's offset in its doc
        pa.field("region_idx", pa.int32()),  # the region's index in its page
        pa.field("kind", pa.string()),
        pa.field("text", pa.string()),
        pa.field("media_ref", pa.string()),
        pa.field("error", pa.string()),
        pa.field("n_cols", pa.int32()),      # the page's column count
    ]
)

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
