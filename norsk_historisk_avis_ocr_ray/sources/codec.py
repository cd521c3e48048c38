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
byte per column for bands of up to 255 rows), computed while each band of
a raw-zlib page is still in cache.
"""

from __future__ import annotations

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
        raw = zlib.decompress(buf)
        return np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
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


def band_profile(rows: np.ndarray, threshold: int) -> np.ndarray:
    """Column dark-pixel counts of one band. The counts are one byte wide
    while a band has at most 255 rows (the default band is 200), so the sum
    never widens a pixel past a byte; taller bands count in uint16."""
    dtype = np.uint8 if rows.shape[0] <= 255 else np.uint16
    return np.add.reduce((rows < threshold).view(np.uint8), axis=0, dtype=dtype)


def _band_bounds(height: int, band_height: int) -> list[tuple[int, int]]:
    """Row ranges of the bands ``layout.find_band_dividers`` iterates:
    ``height // band_height`` bands (min 1), the sub-band tail ignored."""
    return [(y0, min(y0 + band_height, height))
            for y0 in range(0, max(1, height // band_height) * band_height,
                            band_height)]


def band_profiles(img: np.ndarray, threshold: int,
                  band_height: int) -> list[tuple[int, np.ndarray]]:
    """``(band rows, band_profile)`` per band of ``_band_bounds``, bands
    shorter than 20 rows skipped."""
    return [(y1 - y0, band_profile(img[y0:y1], threshold))
            for y0, y1 in _band_bounds(img.shape[0], band_height)
            if y1 - y0 >= 20]


def decode_with_band_profiles(
    buf, width: int, height: int, codec: str = RAW_ZLIB,
    threshold: int = 200, band_height: int = 200,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Decode + band profiles in one cache-hot pass.

    ``buf`` is any bytes-like payload (``bytes`` or a zero-copy
    ``pa.Buffer``). For ``raw-zlib`` this inflates band by band and
    profiles each band while its rows are still in cache, so layout's first
    phase never re-reads the page from memory. The stream must inflate to
    exactly ``width*height`` bytes; a longer or shorter one raises
    ``ValueError``. Other codecs decode normally and profile afterwards
    (their decoders are compute-dominated).
    """
    if codec != RAW_ZLIB:
        img = decode_image(buf, width, height, codec)
        return img, band_profiles(img, threshold, band_height)

    img = np.empty((height, width), dtype=np.uint8)
    flat = img.reshape(-1)
    dco = zlib.decompressobj()
    data = buf
    pos = 0

    def inflate_to(end: int) -> None:
        nonlocal data, pos
        while pos < end:
            chunk = dco.decompress(data, end - pos)
            data = dco.unconsumed_tail
            if not chunk:
                raise ValueError(f"raw-zlib payload inflates to {pos} bytes, "
                                 f"short of {width}x{height}")
            flat[pos:pos + len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
            pos += len(chunk)

    profiles: list[tuple[int, np.ndarray]] = []
    for y0, y1 in _band_bounds(height, band_height):
        inflate_to(y1 * width)
        if y1 - y0 >= 20:
            profiles.append((y1 - y0, band_profile(img[y0:y1], threshold)))
    inflate_to(flat.size)
    if not dco.eof and (dco.decompress(data, 1) or not dco.eof):
        raise ValueError(f"raw-zlib payload does not end at {width}x{height} "
                         "bytes")
    return img, profiles
