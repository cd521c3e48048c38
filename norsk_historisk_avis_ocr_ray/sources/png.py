"""Pure-numpy PNG codec (no imaging libraries).

Implements the public PNG spec (RFC 2083 / ISO 15948): chunk framing with
CRC-32, zlib-compressed IDAT (inflated by ``codec.inflate_exact``, with the
system libdeflate when present), and the five scanline filters (None, Sub,
Up, Average, Paeth). Supports the formats a scanned-page pipeline meets: 8-bit
grayscale (native), plus RGB / palette / alpha variants on decode (converted
to grayscale luma). Interlacing (Adam7) is not supported — scanners don't
emit it; a clear error is raised.

This makes S3 (image-file loading) and the vision engine's payload encoding
real instead of stubbed (reference loads via PIL, ``tesseract_engine.py:143``,
``claude_vision_engine.py:295-296``).

Encoding picks per-row filters by the standard minimum-sum-of-absolute-
differences heuristic over None/Sub/Up (all vectorized). Decoding unfilters
in one pass over the rows, writing each in place into one preallocated page
with no per-row allocation: None is a copy, Sub a uint8 prefix sum per
channel lane (it wraps mod 256), Up one ``out=`` add onto the row above;
only Average/Paeth rows fall back to a per-pixel loop. Malformed framing (a
cut header or IHDR, a palette index past PLTE, a bad filter byte) raises
``ValueError``, which the page kernel turns into one error row per page.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .codec import inflate_exact

_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# color type -> samples per pixel
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(img: np.ndarray, compress_level: int = 6) -> bytes:
    """uint8 HxW grayscale (or HxWx3 RGB) → PNG bytes."""
    if img.dtype != np.uint8:
        raise ValueError(f"expected uint8 image, got {img.dtype}")
    if img.ndim == 2:
        color_type, channels = 0, 1
        h, w = img.shape
        flat = img[:, :, None]
    elif img.ndim == 3 and img.shape[2] == 3:
        color_type, channels = 2, 3
        h, w = img.shape[:2]
        flat = img
    else:
        raise ValueError(f"expected HxW or HxWx3, got shape {img.shape}")

    rows = flat.reshape(h, w * channels)
    # candidate filters (vectorized over all rows):
    f_none = rows
    f_sub = rows.copy()
    f_sub[:, channels:] = rows[:, channels:] - rows[:, :-channels]
    f_up = rows.copy()
    f_up[1:] = rows[1:] - rows[:-1]
    # minimum sum of absolute differences heuristic (bytes as signed)
    costs = np.stack([
        np.abs(f_none.astype(np.int16) - 128).sum(axis=1),
        np.abs(f_sub.view(np.int8).astype(np.int16)).sum(axis=1),
        np.abs(f_up.view(np.int8).astype(np.int16)).sum(axis=1),
    ])
    choice = np.argmin(costs, axis=0)
    candidates = (f_none, f_sub, f_up)
    out = np.empty((h, 1 + w * channels), dtype=np.uint8)
    out[:, 0] = choice
    for fi in range(3):
        rows_fi = choice == fi
        if rows_fi.any():
            out[rows_fi, 1:] = candidates[fi][rows_fi]

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    idat = zlib.compress(out.tobytes(), compress_level)
    return (_SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(data: np.ndarray, h: int, w: int, channels: int) -> np.ndarray:
    """Filtered scanlines (h rows of [filter byte, w*channels bytes]) →
    reconstructed (h, w*channels) uint8, in one pass that writes each row in
    place into one preallocated page: None copies, Sub is a uint8 prefix sum
    per channel lane (it wraps mod 256, as the filter does), Up one ``out=``
    add onto the row above; Average and Paeth read the reconstructed left
    pixel, so they run per pixel."""
    stride = w * channels
    data = data.reshape(h, 1 + stride)
    recon = np.empty((h, stride), dtype=np.uint8)
    bpp = channels
    prev = np.zeros(stride, dtype=np.uint8)
    for y, f in enumerate(data[:, 0].tolist()):
        line, row = data[y, 1:], recon[y]
        if f == 0:                      # None
            row[:] = line
        elif f == 1:                    # Sub
            np.add.accumulate(line.reshape(-1, bpp), axis=0, dtype=np.uint8,
                              out=row.reshape(-1, bpp))
        elif f == 2:                    # Up
            np.add(line, prev, out=row)
        elif f == 3:                    # Average (left-dependent: per pixel)
            for i in range(stride):
                left = int(row[i - bpp]) if i >= bpp else 0
                row[i] = (int(line[i]) + ((left + int(prev[i])) >> 1)) & 0xFF
        elif f == 4:                    # Paeth (left-dependent: per pixel)
            for i in range(stride):
                a = int(row[i - bpp]) if i >= bpp else 0
                c = int(prev[i - bpp]) if i >= bpp else 0
                row[i] = (int(line[i]) + _paeth(a, int(prev[i]), c)) & 0xFF
        else:
            raise ValueError(f"bad PNG filter byte {f} on row {y}")
        prev = row
    return recon


def decode_png(buf: bytes) -> np.ndarray:
    """PNG bytes → uint8 HxW grayscale (color converted via ITU-R 601 luma)."""
    if buf[:8] != _SIGNATURE:
        raise ValueError("not a PNG (bad signature)")
    pos = 8
    ihdr = None
    palette = None
    idat = []
    while pos + 8 <= len(buf):         # a partial chunk header ends it
        (length,) = struct.unpack_from(">I", buf, pos)
        tag = buf[pos + 4:pos + 8]
        payload = buf[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            if len(payload) < 13:
                raise ValueError("truncated PNG IHDR")
            ihdr = struct.unpack_from(">IIBBBBB", payload)
        elif tag == b"PLTE":
            palette = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, bit_depth, color_type, _comp, _filt, interlace = ihdr
    if bit_depth != 8:
        raise ValueError(f"unsupported PNG bit depth {bit_depth} (only 8)")
    if interlace != 0:
        raise ValueError("interlaced (Adam7) PNG not supported")
    channels = _CHANNELS.get(color_type)
    if channels is None:
        raise ValueError(f"unsupported PNG color type {color_type}")

    # a single IDAT inflates from its zero-copy slice; only split ones join
    data = inflate_exact(idat[0] if len(idat) == 1 else b"".join(idat),
                         np.empty(h * (1 + w * channels), np.uint8), "PNG IDAT")
    recon = _unfilter(data, h, w, channels)

    if color_type == 0:
        return recon.reshape(h, w)
    if color_type == 3:
        if palette is None:
            raise ValueError("palette PNG missing PLTE")
        try:
            rgb = palette[recon.reshape(h, w)]
        except IndexError as e:         # an index past the PLTE entries
            raise ValueError(f"PNG palette {e}") from None
        return _luma(rgb)
    px = recon.reshape(h, w, channels)
    if color_type == 2:
        return _luma(px)
    if color_type == 4:                 # gray + alpha: drop alpha
        return px[:, :, 0].copy()
    return _luma(px[:, :, :3])          # RGBA: drop alpha


def _luma(rgb: np.ndarray) -> np.ndarray:
    r = rgb[:, :, 0].astype(np.float64)
    g = rgb[:, :, 1].astype(np.float64)
    b = rgb[:, :, 2].astype(np.float64)
    return np.clip(np.round(0.299 * r + 0.587 * g + 0.114 * b),
                   0, 255).astype(np.uint8)
