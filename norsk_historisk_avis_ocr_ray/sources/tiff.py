"""Pure-numpy baseline TIFF codec (no imaging libraries).

Completes S3 input coverage (reference accepts ``.tiff/.tif``, ``ocr.py:25``)
for the formats a scanned-page archive actually holds: single-image grayscale
(or RGB→luma) TIFF 6.0 with Compression = none (1), PackBits (32773), or LZW
(5, with horizontal predictor). Both byte orders. Tiled TIFFs, CCITT fax
compressions, and planar-separated color raise clear errors naming the
unsupported feature.

Encoding writes the simplest interoperable form: single-strip uncompressed
8-bit grayscale, little-endian.
"""

from __future__ import annotations

import struct

import numpy as np

# tag ids
_WIDTH, _HEIGHT = 256, 257
_BITS, _COMPRESSION, _PHOTO = 258, 259, 262
_STRIP_OFFSETS, _SAMPLES_PER_PIXEL, _ROWS_PER_STRIP = 273, 277, 278
_STRIP_COUNTS, _PLANAR, _PREDICTOR = 279, 284, 317
_TILE_WIDTH = 322

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4, 10: 8,
              11: 4, 12: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 6: "b", 8: "h", 9: "i"}


def encode_tiff(img: np.ndarray) -> bytes:
    """uint8 HxW grayscale → single-strip uncompressed little-endian TIFF."""
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError(f"expected uint8 HxW grayscale, got {img.dtype} "
                         f"ndim={img.ndim}")
    h, w = img.shape
    data = np.ascontiguousarray(img).tobytes()
    # header(8) + IFD: count(2) + 9 entries(12 each) + next(4) = 114
    data_off = 8 + 2 + 9 * 12 + 4
    entries = [
        (_WIDTH, 4, 1, w),
        (_HEIGHT, 4, 1, h),
        (_BITS, 3, 1, 8),
        (_COMPRESSION, 3, 1, 1),
        (_PHOTO, 3, 1, 1),          # BlackIsZero
        (_STRIP_OFFSETS, 4, 1, data_off),
        (_SAMPLES_PER_PIXEL, 3, 1, 1),
        (_STRIP_COUNTS, 4, 1, len(data)),
        (_ROWS_PER_STRIP, 4, 1, h),
    ]
    out = bytearray(b"II*\x00" + struct.pack("<I", 8))
    out += struct.pack("<H", len(entries))
    for tag, typ, cnt, val in entries:
        out += struct.pack("<HHII", tag, typ, cnt, val)
    out += struct.pack("<I", 0)  # no next IFD
    out += data
    return bytes(out)


def _read_ifd(buf: bytes, e: str) -> dict[int, list]:
    (ifd_off,) = struct.unpack_from(e + "I", buf, 4)
    (n,) = struct.unpack_from(e + "H", buf, ifd_off)
    tags: dict[int, list] = {}
    for i in range(n):
        off = ifd_off + 2 + 12 * i
        tag, typ, cnt = struct.unpack_from(e + "HHI", buf, off)
        fmt = _TYPE_FMT.get(typ)
        if fmt is None:
            continue  # rational / unsupported value types: skip tag
        size = _TYPE_SIZE[typ] * cnt
        if size <= 4:
            vals = struct.unpack_from(e + fmt * cnt, buf, off + 8)
        else:
            (voff,) = struct.unpack_from(e + "I", buf, off + 8)
            vals = struct.unpack_from(e + fmt * cnt, buf, voff)
        tags[tag] = list(vals)
    return tags


def _unpackbits(data: bytes, expected: int) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data) and len(out) < expected:
        n = data[i]
        i += 1
        if n < 128:
            out += data[i : i + n + 1]
            i += n + 1
        elif n > 128:
            out += bytes((data[i],)) * (257 - n)
            i += 1
        # n == 128: no-op
    return bytes(out)


def _unlzw(data: bytes, expected: int) -> bytes:
    """TIFF-variant LZW (MSB-first codes, early code-size change)."""
    CLEAR, EOI = 256, 257
    out = bytearray()
    table: list[bytes] = []

    def reset():
        nonlocal table
        table = [bytes([i]) for i in range(256)] + [b"", b""]

    reset()
    width = 9
    acc = 0
    nbits = 0
    prev: bytes | None = None
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= width:
            nbits -= width
            code = (acc >> nbits) & ((1 << width) - 1)
            if code == CLEAR:
                reset()
                width = 9
                prev = None
                continue
            if code == EOI:
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            else:  # KwKwK
                entry = prev + prev[:1]
                table.append(entry)
            out += entry
            prev = entry
            # TIFF switches width one code EARLY (when table has 2^w - 1)
            if len(table) >= (1 << width) - 1 and width < 12:
                width += 1
            if len(out) >= expected:
                return bytes(out)
    return bytes(out)


def decode_tiff(buf: bytes) -> np.ndarray:
    """TIFF bytes → uint8 HxW grayscale (RGB converted to luma). A page
    stored as one uncompressed 8-bit grayscale strip comes back as a
    read-only view of ``buf``; every other page is a new array."""
    if buf[:2] == b"II" and buf[2:4] == b"*\x00":
        e = "<"
    elif buf[:2] == b"MM" and buf[2:4] == b"\x00*":
        e = ">"
    else:
        raise ValueError("not a TIFF (bad byte-order header)")
    tags = _read_ifd(buf, e)
    if _TILE_WIDTH in tags:
        raise NotImplementedError("tiled TIFF unsupported (strips only)")
    w = tags[_WIDTH][0]
    h = tags[_HEIGHT][0]
    spp = tags.get(_SAMPLES_PER_PIXEL, [1])[0]
    bits = tags.get(_BITS, [8])
    if any(b != 8 for b in bits[:spp]):
        raise NotImplementedError(f"only 8-bit samples supported, got {bits}")
    if tags.get(_PLANAR, [1])[0] != 1:
        raise NotImplementedError("planar-separated TIFF unsupported")
    comp = tags.get(_COMPRESSION, [1])[0]
    if comp not in (1, 5, 32773):
        raise NotImplementedError(
            f"TIFF compression {comp} unsupported (none/LZW/PackBits only)")

    rows_per_strip = tags.get(_ROWS_PER_STRIP, [h])[0]
    row_bytes = w * spp
    if comp == 1 and spp == 1 and rows_per_strip >= h:
        # one uncompressed grayscale strip is the page: a read-only view of
        # the payload, no copy
        off, cnt = tags[_STRIP_OFFSETS][0], tags[_STRIP_COUNTS][0]
        held = max(0, min(cnt, len(buf) - off))
        if held < h * w:
            raise ValueError(f"TIFF strip 0 holds {held} bytes, "
                             f"expected {h * w}")
        img = np.frombuffer(buf, np.uint8, h * w, off).reshape(h, w)
        img.flags.writeable = False
        return img
    predictor = tags.get(_PREDICTOR, [1])[0]
    # Each strip is written once into the page; a short strip, or too few
    # strips, is a ValueError, never a sheared page.
    page = np.empty(h * row_bytes, np.uint8)
    pos = 0
    for si, (off, cnt) in enumerate(zip(tags[_STRIP_OFFSETS],
                                        tags[_STRIP_COUNTS])):
        if pos == page.size:
            break
        nrows = min(rows_per_strip, h - si * rows_per_strip)
        expected = nrows * row_bytes
        chunk = buf[off : off + cnt]
        if comp == 1:
            data = chunk
        elif comp == 32773:
            data = _unpackbits(chunk, expected)
        else:
            data = _unlzw(chunk, expected)
        if len(data) < expected:
            raise ValueError(f"TIFF strip {si} holds {len(data)} bytes, "
                             f"expected {expected}")
        dst = page[pos : pos + expected]
        dst[:] = np.frombuffer(data, np.uint8, expected)
        pos += expected
        if comp == 5 and predictor == 2:  # horizontal differencing
            s = dst.reshape(nrows, w, spp)
            np.cumsum(s, axis=1, dtype=np.uint8, out=s)
    if pos < page.size:
        raise ValueError(f"TIFF strips hold {pos} bytes, expected {page.size}")
    if spp == 1:
        return page.reshape(h, w)
    img = page.reshape(h, w, spp)
    rgb = img[:, :, :3].astype(np.float64)
    return np.clip(
        0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2],
        0, 255).astype(np.uint8)
