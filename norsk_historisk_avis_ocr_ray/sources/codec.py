"""Image codec for media payloads.

The engine treats page images as opaque ``binary`` columns with typed metadata
(``codec``, ``width``, ``height``) and decodes them only inside the layout /
OCR stages (reference decodes via pdf2image / PIL,
``tesseract_engine.py:133-144``). Native codecs:

- ``raw-zlib`` — zlib-compressed row-major uint8 grayscale (synthetic corpus)
- ``png``      — real PNG via the pure-numpy codec in ``sources.png``
- ``pdf``      — embedded-scan extraction via ``sources.pdf`` (scanned-page
  PDFs carry one image XObject per page; vector rasterization would need
  poppler and is out of scope for this container)
- ``jpeg``     — baseline JPEG via the pure-numpy codec in ``sources.jpeg``
  (encode accepts ``jpeg:<quality>``, e.g. ``jpeg:95``)
- ``tiff``     — grayscale TIFF via ``sources.tiff`` (decode: none / LZW /
  PackBits strips; encode: single-strip uncompressed)

Payloads may be any bytes-like object; the page kernel passes zero-copy
``pa.Buffer`` slices of the ``image`` column. ``decode_with_band_profiles``
also returns layout's per-band column dark counts (``band_profile``, one
byte per column for bands of up to 255 rows), in one pass over the decoded
page.

raw-zlib pages, PNG IDAT and PDF FlateDecode streams inflate through
``inflate_exact`` straight into their preallocated pixel buffer: with the
system libdeflate (``libdeflate.so.0`` via ``ctypes``, loaded on first use)
when it is installed, else with the stdlib ``zlib`` in bounded steps. Both
paths give the same pixels and raise ``ValueError`` for the same streams.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import zlib

import numpy as np

RAW_ZLIB = "raw-zlib"
PNG = "png"
JPEG = "jpeg"


def encode_image(img: np.ndarray, codec: str = RAW_ZLIB) -> bytes:
    """uint8 HxW grayscale → encoded bytes."""
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError(f"expected uint8 HxW grayscale, got {img.dtype} ndim={img.ndim}")
    if codec == RAW_ZLIB:
        return zlib.compress(np.ascontiguousarray(img).tobytes(), 1)
    if codec == PNG:
        from .png import encode_png

        return encode_png(np.ascontiguousarray(img))
    if codec == JPEG or codec.startswith("jpeg:"):
        from .jpeg import encode_jpeg

        quality = int(codec.partition(":")[2]) if ":" in codec else 75
        return encode_jpeg(np.ascontiguousarray(img), quality)
    if codec in ("tiff", "tif"):
        from .tiff import encode_tiff

        return encode_tiff(np.ascontiguousarray(img))
    raise ValueError(f"unknown encode codec '{codec}'")


def decode_image(buf, width: int, height: int, codec: str = RAW_ZLIB) -> np.ndarray:
    """bytes-like payload → uint8 HxW grayscale ndarray.

    ``width``/``height`` are the typed-metadata columns; self-describing
    codecs (png/pdf) validate against them when provided (>0)."""
    if codec == RAW_ZLIB:
        return inflate_exact(buf, np.empty((height, width), np.uint8),
                             "raw-zlib payload")
    # The PNG and TIFF parsers read a zero-copy memoryview; the PDF and JPEG
    # parsers use ``bytes`` methods, so they get a copy of this one page.
    if codec == PNG:
        from .png import decode_png

        img = decode_png(memoryview(buf).cast("B"))
        _check_dims(img, width, height, codec)
        return img
    if codec == "pdf":
        from .pdf import extract_page_image

        img = extract_page_image(bytes(buf))
        _check_dims(img, width, height, codec)
        return img
    if codec in ("jpeg", "jpg") or codec.startswith("jpeg:"):
        from .jpeg import decode_jpeg

        img = decode_jpeg(bytes(buf))
        _check_dims(img, width, height, codec)
        return img
    if codec in ("tiff", "tif"):
        from .tiff import decode_tiff

        img = decode_tiff(memoryview(buf).cast("B"))
        _check_dims(img, width, height, codec)
        return img
    raise ValueError(f"unknown codec '{codec}'")


def _check_dims(img: np.ndarray, width: int, height: int, codec: str) -> None:
    if width and height and img.shape != (height, width):
        raise ValueError(
            f"{codec} payload is {img.shape[1]}x{img.shape[0]} but metadata "
            f"says {width}x{height}")


# libdeflate_result codes; the stdlib fallback reports the same ones
_SUCCESS, _BAD_DATA, _SHORT_OUTPUT, _INSUFFICIENT_SPACE = 0, 1, 2, 3
_FAULTS = {_BAD_DATA: "is not a complete zlib stream",
           _SHORT_OUTPUT: "inflates to fewer than {} bytes",
           _INSUFFICIENT_SPACE: "inflates to more than {} bytes"}
# stdlib fallback: input fed and output taken per ``decompress`` call. A
# call bounded by CPython's first 32 KiB output block returns that block
# as is; larger steps join blocks into a new ``bytes`` and run ~2x slower.
_STEP = 1 << 15


def inflate_exact(buf, out: np.ndarray, what: str) -> np.ndarray:
    """Inflate the zlib stream ``buf`` (any bytes-like) into ``out``, a
    preallocated C-contiguous uint8 array, and return ``out``.

    Raises ``ValueError`` (naming ``what``) unless the stream fills ``out``
    exactly and ends there; bytes after the stream's end are ignored. A
    stream that inflates past ``out`` is stopped there: a zlib bomb costs
    no memory beyond ``out`` (and, on the stdlib path, a few ``_STEP``s)."""
    if not (out.dtype == np.uint8 and out.flags.c_contiguous
            and out.flags.writeable):
        raise ValueError("inflate_exact needs a writable C-contiguous uint8 array")
    lib = _libdeflate()
    if lib is None:
        result = _inflate_stdlib(buf, out.reshape(-1))
    else:
        src = np.frombuffer(buf, np.uint8)  # keeps ``buf`` alive and pinned
        d = lib.libdeflate_alloc_decompressor()
        if not d:
            raise MemoryError("libdeflate_alloc_decompressor failed")
        try:
            result = lib.libdeflate_zlib_decompress(
                d, src.ctypes.data, src.size, out.ctypes.data, out.size, None)
        finally:
            lib.libdeflate_free_decompressor(d)
    if result != _SUCCESS:
        fault = _FAULTS.get(result, "does not inflate to {} bytes")
        raise ValueError(f"{what} {fault.format(out.size)}")
    return out


@functools.cache
def _libdeflate() -> ctypes.CDLL | None:
    """The system libdeflate with its decompressor signatures declared, or
    None when it is not installed (``inflate_exact`` then uses ``zlib``)."""
    path = ctypes.util.find_library("deflate")
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_zlib_decompress.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
            ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
        lib.libdeflate_zlib_decompress.restype = ctypes.c_int
    except (OSError, AttributeError):
        return None
    return lib


def _inflate_stdlib(buf, flat: np.ndarray) -> int:
    """``inflate_exact`` with the stdlib ``zlib``, as a libdeflate result
    code. Input and output move in ``_STEP``-byte steps: one unbounded
    ``decompress`` call would copy the whole unconsumed input and join its
    output blocks into a new ``bytes``, about 3x the page on a zlib bomb."""
    src = memoryview(buf).cast("B")
    dco = zlib.decompressobj()
    pos = 0
    try:
        for i in range(0, len(src), _STEP):
            data = src[i:i + _STEP]
            while not dco.eof:
                chunk = dco.decompress(data, min(_STEP, flat.size + 1 - pos))
                if pos + len(chunk) > flat.size:
                    return _INSUFFICIENT_SPACE
                flat[pos:pos + len(chunk)] = np.frombuffer(chunk, np.uint8)
                pos += len(chunk)
                data = dco.unconsumed_tail
                if not chunk and not data:
                    break               # this step's input is used up
            if dco.eof:
                break
    except zlib.error:
        return _BAD_DATA
    if not dco.eof:
        return _BAD_DATA
    return _SUCCESS if pos == flat.size else _SHORT_OUTPUT


def band_profile(rows: np.ndarray, threshold: int) -> np.ndarray:
    """Column dark-pixel counts of one band. The counts are one byte wide
    while a band has at most 255 rows (the default band is 200), so the sum
    never widens a pixel past a byte; taller bands count in uint16."""
    dtype = np.uint8 if rows.shape[0] <= 255 else np.uint16
    return np.add.reduce((rows < threshold).view(np.uint8), axis=0, dtype=dtype)


def band_profiles(img: np.ndarray, threshold: int,
                  band_height: int) -> list[tuple[int, np.ndarray]]:
    """``(band rows, band_profile)`` per band ``layout.find_band_dividers``
    iterates: ``height // band_height`` bands (min 1), the sub-band tail
    ignored, bands shorter than 20 rows skipped."""
    height = img.shape[0]
    bounds = ((y0, min(y0 + band_height, height))
              for y0 in range(0, max(1, height // band_height) * band_height,
                              band_height))
    return [(y1 - y0, band_profile(img[y0:y1], threshold))
            for y0, y1 in bounds if y1 - y0 >= 20]


def decode_with_band_profiles(
    buf, width: int, height: int, codec: str = RAW_ZLIB,
    threshold: int = 200, band_height: int = 200,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """The page kernel's decode step: ``decode_image``, then layout's
    ``band_profiles`` in one pass over the decoded page. A raw-zlib page
    inflates straight into the page buffer (``inflate_exact``: the system
    libdeflate when present, else the stdlib ``zlib`` in 32 KiB steps), and
    raises ``ValueError`` unless its stream is exactly ``width*height``
    bytes."""
    img = decode_image(buf, width, height, codec)
    return img, band_profiles(img, threshold, band_height)
