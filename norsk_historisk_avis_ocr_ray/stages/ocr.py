"""OCR engines and the page kernel.

Engine plugin surface (the analogue of the reference's engine registry,
``engines/__init__.py:4-16`` + the ``process_file`` protocol, ``CLAUDE.md``):
an ``OcrEngine`` has ``load()`` (called once per worker process —
model/language data is per-worker state, reference M1/M2) and
``ocr_region(img) -> str``.

``ocr_pages`` is the one page kernel: per page it decodes the payload, runs
layout analysis (``stages.layout``), crops regions and OCRs each, emitting
*text-only* page regions in the span stages' one row shape
(``schema.SPAN_ROW_SCHEMA``) — no image bytes ever enter the downstream
stream or the reading-order shuffle (the reference's per-file sequential
loop is ``tesseract_engine.py:152-178``). ``LayoutOcrStage`` is its Ray form
(tasks, one cached engine per worker process), and ``resolve_spans`` joins
span rows to the page regions beside them, in process.

Error policy (fixes reference behavior where one API error aborts the whole
file, ``claude_vision_engine.py:320-321``): any per-page or per-span failure
emits a row with an ``error`` message and empty text — the job never aborts,
and repack counts errors per document.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray import cloudpickle

from ..schema import PART, SPAN_ROW_SCHEMA
from ..sources.codec import decode_with_band_profiles
from ..synth import barcode
from .layout import DARK_THRESHOLD, split_columns


class MockBarcodeOcr:
    """Deterministic OCR: reads the pixel barcode of synthetic pages."""

    name = "mock-barcode"

    def load(self) -> None:  # nothing to load; real engines load models here
        pass

    def ocr_region(self, img: np.ndarray, **_) -> str:
        return barcode.read_barcode(img)


class TesseractOcr:
    """Adapter for a real tesseract engine (reference M1).

    Not usable in this container (no tesseract binary / pytesseract); the
    adapter exists so the Ray plumbing is identical for a real engine:
    ``load`` resolves the binary + language data once per worker process
    (reference ``tesseract_engine.py:119-123``), ``ocr_region`` runs one region.
    """

    name = "tesseract"

    def __init__(self, lang: str = "nor"):
        self.lang = lang
        self._pytesseract = None

    @staticmethod
    def check_dependencies() -> list[str]:
        """Missing-dependency list, empty when runnable — the behavioral
        mirror of reference ``tesseract_engine.py:100-112``
        (check_dependencies): the binary is resolved with ``shutil.which``,
        the Python binding by import probe. Called by ``load()`` so an OCR
        task fails fast with the full shopping list instead of a bare
        ImportError mid-batch."""
        import shutil

        missing = []
        if not shutil.which("tesseract"):
            missing.append("tesseract binary (apt install tesseract-ocr + "
                           "the language pack, e.g. tesseract-ocr-nor)")
        try:
            import pytesseract  # type: ignore # noqa: F401
        except ImportError:
            missing.append("pytesseract (pip install pytesseract)")
        return missing

    def load(self) -> None:
        missing = self.check_dependencies()
        if missing:  # pragma: no cover - environment-dependent
            raise NotImplementedError(
                "TesseractOcr is missing dependencies: " + "; ".join(missing)
                + ". Use MockBarcodeOcr for deterministic runs, or see "
                "docs/TESSERACT.md for setup.")
        import pytesseract  # type: ignore

        self._pytesseract = pytesseract

    def ocr_region(self, img: np.ndarray, **_) -> str:  # pragma: no cover
        return self._pytesseract.image_to_string(img, lang=self.lang)


# Engine registry — the analogue of the reference's lazy engine registry
# (``engines/__init__.py:4-16``): name → factory, injected into the OCR
# stages via ``engine_factory``.
ENGINES: dict[str, Callable[[], Any]] = {}


def register_engine(name: str, factory: Callable[[], Any]) -> None:
    ENGINES[name] = factory


def get_engine(name: str) -> Callable[[], Any]:
    try:
        return ENGINES[name]
    except KeyError:
        raise KeyError(f"unknown OCR engine {name!r}; known: {sorted(ENGINES)}")


_ENGINE_CACHE: dict[bytes, Any] = {}


def _factory_key(factory: Callable[[], Any]) -> bytes:
    """Per-worker cache key for an engine factory: a digest of its pickle.
    ``id()`` is useless here: task arguments are deserialized fresh per task,
    so identity never repeats. A qualified name is not enough either: two
    lambdas from one maker, or two ``partial``s of one class, differ only by
    their closure cells or arguments, which the pickle carries."""
    return hashlib.blake2b(cloudpickle.dumps(factory), digest_size=16).digest()


def cached_engine(engine_factory: Callable[[], Any]) -> Any:
    """Build and ``load()`` the engine once per worker process and factory."""
    key = _factory_key(engine_factory)
    engine = _ENGINE_CACHE.get(key)
    if engine is None:
        engine = engine_factory()
        engine.load()
        _ENGINE_CACHE[key] = engine
    return engine


PAGE_COLUMNS = ["media_ref", "image", "width", "height", "codec"]


def ocr_pages(pages: pa.Table | Iterable[pa.RecordBatch],
              engine: Any) -> pa.Table:
    """The page kernel: page rows (``PAGE_COLUMNS``, a table or a stream of
    record batches) → text-only page regions, one per layout region: rows
    of ``schema.SPAN_ROW_SCHEMA`` with a ``region_idx``, partition 0 and no
    ``doc_id`` or ``in_offset``.

    Every pipeline OCRs through this loop; span rows are resolved against its
    output with a left join on ``(PART, media_ref)`` (``resolve_spans``). A
    page that fails to decode, lay out or OCR yields one error row (empty
    text) and none of its regions — never a job abort; an error reading the
    stream itself raises. The region columns are built once, over all
    batches.
    """
    # each region's media_ref, region_idx, text, error and n_cols
    cols: list[list] = [[] for _ in range(5)]
    for ref, buf, w, h, codec in page_rows(pages):
        try:
            img, profiles = decode_with_band_profiles(
                buf, w, h, codec, threshold=DARK_THRESHOLD)
            layout = split_columns(img, band_profiles=profiles)
            rows = [(ref, region_idx,
                     engine.ocr_region(img[y0:y1, x0:x1], region_kind=kind,
                                       n_cols=layout.n_cols),
                     None, layout.n_cols)
                    for region_idx, (kind, (x0, y0, x1, y1))
                    in enumerate(layout.regions)]
        except Exception as e:  # per-page error row, never job abort
            rows = [(ref, 0, "", f"{type(e).__name__}: {e}", 0)]
        for row in rows:
            for c, v in zip(cols, row):
                c.append(v)
    refs, region_idx, texts, errors, n_cols = cols
    n = len(refs)
    return pa.Table.from_arrays(
        [pa.array(np.zeros(n, np.int32)), pa.nulls(n, pa.string()),
         pa.nulls(n, pa.int32()), pa.array(region_idx, pa.int32()),
         pa.array(["text"] * n, pa.string()), pa.array(texts, pa.string()),
         pa.array(refs, pa.string()), pa.array(errors, pa.string()),
         pa.array(n_cols, pa.int32())],
        schema=SPAN_ROW_SCHEMA)


def page_rows(pages: pa.Table | Iterable[pa.RecordBatch]) -> Iterator[tuple]:
    """The one page loader: page rows (``PAGE_COLUMNS``) as ``(media_ref,
    payload, width, height, codec)``, the payload a zero-copy buffer and a
    missing codec ``raw-zlib``. ``pages`` is a table or an iterable of
    record batches, read one batch at a time: only the batch being yielded
    from is held here."""
    for batch in pages.to_batches() if isinstance(pages, pa.Table) else pages:
        yield from zip(batch["media_ref"].to_pylist(), _payloads(batch["image"]),
                       batch["width"].to_pylist(), batch["height"].to_pylist(),
                       (c or "raw-zlib" for c in batch["codec"].to_pylist()))


def _payloads(arr: pa.Array) -> Iterator[pa.Buffer | None]:
    """A binary array as zero-copy ``pa.Buffer`` slices of its data buffer
    (None for a null). ``to_pylist()``, and ``Scalar.as_buffer()`` too,
    would copy each payload into a new buffer."""
    if not len(arr):
        return
    _, offsets, data = arr.buffers()
    data = data or pa.py_buffer(b"")
    off = np.frombuffer(offsets, np.int64 if pa.types.is_large_binary(
        arr.type) else np.int32)[arr.offset:arr.offset + len(arr) + 1]
    for i, valid in enumerate(arr.is_valid().to_pylist()):
        yield data.slice(off[i], off[i + 1] - off[i]) if valid else None


class LayoutOcrStage:
    """Ray form of ``ocr_pages``: a callable *instance* passed to
    ``map_batches`` runs as Ray tasks, and the engine is built and loaded
    once per worker process (``cached_engine``)."""

    def __init__(self, engine_factory: Callable[[], Any] = MockBarcodeOcr):
        self.engine_factory = engine_factory

    def __call__(self, batch: pa.Table) -> pa.Table:
        return ocr_pages(batch, cached_engine(self.engine_factory))


def resolve_spans(rows: pa.Table) -> pa.Table:
    """Span rows and page regions (the rows with a ``region_idx``) →
    resolved region rows, in process: a local left join of the media spans
    on ``(PART, media_ref)``, so the spans of a partition resolve against
    its own page regions only. A media span with no page region is a
    ``MissingMedia`` error row."""
    is_page = pc.is_valid(rows["region_idx"])
    is_media = pc.equal(rows["kind"], "media")  # a page region is 'text'
    pages = rows.select([PART, "media_ref", "region_idx", "kind", "text",
                         "error", "n_cols"]).filter(is_page)
    media = rows.select([PART, "media_ref", "doc_id", "in_offset"]).filter(
        is_media)
    # one task per worker CPU already: no Arrow thread pool for the join
    joined = media.join(pages, [PART, "media_ref"], join_type="left outer",
                        use_threads=False)
    rest = rows.filter(pc.invert(pc.or_(is_page, is_media)))
    return pa.concat_tables([_finalize_media(joined), _passthrough_spans(rest)])


def _finalize_media(t: pa.Table) -> pa.Table:
    """Media spans left-joined with page regions → region rows. A span whose
    page is missing becomes one ``MissingMedia: <ref>`` error row (empty
    text), never a job abort."""
    missing = pc.is_null(t["kind"])
    err = pc.if_else(
        missing,
        pc.binary_join_element_wise("MissingMedia", t["media_ref"], ": "),
        t["error"])
    return pa.Table.from_arrays([
        t[PART],
        t["doc_id"],
        t["in_offset"],
        pc.fill_null(t["region_idx"], 0),
        pc.fill_null(t["kind"], "text"),
        pc.fill_null(t["text"], ""),
        t["media_ref"],
        err,
        pc.fill_null(t["n_cols"], 0),
    ], schema=SPAN_ROW_SCHEMA)


def _passthrough_spans(t: pa.Table) -> pa.Table:
    """Non-media spans → region rows: ``empty`` sentinels stay ``empty``,
    every other kind becomes a ``text`` region with no ``media_ref``."""
    n = t.num_rows
    empty = pc.equal(t["kind"], "empty")
    return pa.Table.from_arrays([
        t[PART],
        t["doc_id"],
        t["in_offset"],
        pa.array(np.zeros(n, np.int32)),
        pc.if_else(empty, "empty", "text"),
        pc.if_else(empty, "", t["text"]),
        pa.array([""] * n, pa.string()),
        pa.nulls(n, pa.string()),
        pa.array(np.zeros(n, np.int32)),
    ], schema=SPAN_ROW_SCHEMA)


register_engine(MockBarcodeOcr.name, MockBarcodeOcr)
register_engine(TesseractOcr.name, TesseractOcr)


def _register_llm_engine() -> None:
    # optional-import registration: the vision engine needs no SDK to be
    # constructed/tested (client injected), but keep import failures soft
    try:
        from .llm_ocr import AnthropicVisionOcr
    except Exception:  # pragma: no cover
        return
    register_engine(AnthropicVisionOcr.name, AnthropicVisionOcr)


_register_llm_engine()
