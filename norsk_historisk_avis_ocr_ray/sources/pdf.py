"""Minimal PDF support for *scanned-page* PDFs (reference S2).

The reference rasterizes PDFs with poppler (``tesseract_engine.py:133-141``,
``claude_vision_engine.py:285-294``). A full rasterizer needs a PDF
interpreter + font engine; but every input the reference actually processes
is a *scanned* newspaper page — a PDF that wraps one image XObject per page.
For those, extracting the embedded scan is exactly equivalent to rasterizing
at the scan's native resolution, and needs no external binary.

``extract_page_image`` parses the first image XObject:
- ``/FlateDecode`` + DeviceGray/DeviceRGB 8-bit → inflated here
  (``codec.inflate_exact``)
- ``/DCTDecode`` (embedded JPEG) → decoded via the pure-numpy baseline JPEG
  codec in ``sources.jpeg``
- vector-content PDFs (no image XObject) → ``ValueError`` telling the user
  to rasterize externally

``build_scanned_pdf`` writes a valid single-page scanned PDF (used by tests
and the synthetic corpus to exercise this path end-to-end).
"""

from __future__ import annotations

import re
import zlib

import numpy as np

from .codec import inflate_exact

_IMG_OBJ = re.compile(
    rb"<<(?P<dict>[^>]*?/Subtype\s*/Image[^>]*?)>>\s*stream\r?\n",
    re.DOTALL)
_NUM = re.compile(rb"/(?P<key>Width|Height|BitsPerComponent|Length)\s+(?P<val>\d+)")


def _dict_entries(d: bytes) -> dict:
    out = {k.decode(): int(v) for k, v in
           ((m.group("key"), m.group("val")) for m in _NUM.finditer(d))}
    out["gray"] = b"/DeviceGray" in d
    out["rgb"] = b"/DeviceRGB" in d
    out["flate"] = b"/FlateDecode" in d
    out["dct"] = b"/DCTDecode" in d
    return out


def extract_page_image(buf: bytes) -> np.ndarray:
    """Scanned-PDF bytes → uint8 HxW grayscale of the first page's scan."""
    for m in _IMG_OBJ.finditer(buf):
        info = _dict_entries(m.group("dict"))
        start = m.end()
        if "Length" in info:
            stream = buf[start:start + info["Length"]]
        else:
            end = buf.find(b"endstream", start)
            if end < 0:
                raise ValueError("PDF image stream not terminated")
            stream = buf[start:end].rstrip(b"\r\n")
        if info.get("dct"):
            from .jpeg import decode_jpeg

            img = decode_jpeg(bytes(stream))
            if img.shape != (info["Height"], info["Width"]):
                raise ValueError(
                    f"DCTDecode scan is {img.shape[1]}x{img.shape[0]} but the "
                    f"XObject says {info['Width']}x{info['Height']}")
            return img
        if not info.get("flate"):
            raise NotImplementedError(
                "PDF image uses an unsupported filter (only FlateDecode)")
        if info.get("BitsPerComponent", 8) != 8:
            raise NotImplementedError("only 8-bit PDF scans supported")
        w, h = info["Width"], info["Height"]
        size = w * h * (3 if info.get("rgb") else 1)
        raw = inflate_exact(stream, np.empty(size, np.uint8),
                            "PDF FlateDecode stream")
        if info.get("rgb"):
            px = raw.reshape(h, w, 3).astype(np.float64)
            return np.clip(np.round(
                0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]),
                0, 255).astype(np.uint8)
        return raw.reshape(h, w)
    raise ValueError(
        "no image XObject found — this is a vector-content PDF; rasterize "
        "externally (poppler) before ingest")


def build_scanned_pdf(img: np.ndarray, codec: str = "flate") -> bytes:
    """uint8 HxW grayscale → minimal valid single-page scanned PDF.

    ``codec``: ``"flate"`` (lossless, default) or ``"jpeg"`` / ``"jpeg:<q>"``
    (DCTDecode XObject via the pure-numpy baseline JPEG encoder)."""
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ValueError("expected uint8 HxW grayscale")
    h, w = img.shape
    if codec == "jpeg" or codec.startswith("jpeg:"):
        from .jpeg import encode_jpeg

        quality = int(codec.partition(":")[2]) if ":" in codec else 75
        data = encode_jpeg(np.ascontiguousarray(img), quality)
        pdf_filter = "/DCTDecode"
    elif codec == "flate":
        data = zlib.compress(np.ascontiguousarray(img).tobytes(), 6)
        pdf_filter = "/FlateDecode"
    else:
        raise ValueError(f"unknown scanned-PDF codec '{codec}'")
    content = f"q {w} 0 0 {h} 0 0 cm /Im0 Do Q".encode()

    objs = []
    objs.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objs.append(b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
    objs.append(
        f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {w} {h}] "
        f"/Resources << /XObject << /Im0 4 0 R >> >> /Contents 5 0 R >>".encode())
    objs.append(
        f"<< /Type /XObject /Subtype /Image /Width {w} /Height {h} "
        f"/ColorSpace /DeviceGray /BitsPerComponent 8 /Filter {pdf_filter} "
        f"/Length {len(data)} >>".encode() + b"\nstream\n" + data + b"\nendstream")
    objs.append(f"<< /Length {len(content)} >>".encode()
                + b"\nstream\n" + content + b"\nendstream")

    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, body in enumerate(objs, 1):
        offsets.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_at = len(out)
    out += f"xref\n0 {len(objs) + 1}\n0000000000 65535 f \n".encode()
    for off in offsets:
        out += f"{off:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(objs) + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_at}\n%%EOF\n").encode()
    return bytes(out)
