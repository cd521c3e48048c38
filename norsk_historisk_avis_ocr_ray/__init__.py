"""norsk_historisk_avis_ocr_ray — a Ray-Data-native document-extraction engine.

A from-scratch reimplementation of the capabilities of the reference repo
``agjendem/norsk-historisk-avis-ocr`` (newspaper-page layout analysis, per-region
OCR, text cleanup/reflow, Norwegian OCR-error correction, reading-order
reassembly) expressed as streaming ``ray.data.Dataset`` pipelines:

- stateless ``map_batches`` over zero-copy Arrow batches for decode / layout /
  text cleanup,
- tasks that build the stateful stages (OCR engine, correction normalizer)
  once per worker process,
- a single ``groupby(doc_id)`` shuffle to reassemble span sequences in reading
  order,
- per-partition manifest + lineage for resumable runs.

Data model (authoritative, from BASELINE.json ``input_hint``): a table of
interleaved text + media documents with columns
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset:int32>>)``.
"""

__version__ = "0.1.0"
