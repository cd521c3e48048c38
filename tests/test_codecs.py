"""PNG / scanned-PDF codecs (S2/S3): round-trips, filter paths, and the
e2e extraction run over PNG- and PDF-encoded pages (parity with the
reference's PIL/poppler ingestion, ``tesseract_engine.py:133-144``)."""

import struct
import zlib

import numpy as np
import pytest

from norsk_historisk_avis_ocr_ray.sources.codec import decode_image, encode_image
from norsk_historisk_avis_ocr_ray.sources.pdf import (
    build_scanned_pdf,
    extract_page_image,
)
from norsk_historisk_avis_ocr_ray.sources.png import decode_png, encode_png


def test_png_roundtrip_gray():
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (37, 53), (200, 320)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        assert np.array_equal(decode_png(encode_png(img)), img)


def test_png_roundtrip_structured_page():
    img = np.full((400, 600), 235, np.uint8)
    img[::7] = 30
    img[:, 100:105] = 10
    enc = encode_png(img)
    assert np.array_equal(decode_png(enc), img)
    assert len(enc) < img.size // 50  # filters + zlib actually compress


def test_png_rgb_decodes_to_luma():
    rng = np.random.default_rng(5)
    rgb = rng.integers(0, 256, (20, 30, 3), dtype=np.uint8)
    out = decode_png(encode_png(rgb))
    exp = np.clip(np.round(0.299 * rgb[:, :, 0].astype(np.float64)
                           + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]),
                  0, 255).astype(np.uint8)
    assert np.array_equal(out, exp)


def test_png_chunk_framing_and_crc():
    enc = encode_png(np.zeros((4, 4), np.uint8))
    assert enc[:8] == b"\x89PNG\r\n\x1a\n"
    (length,) = struct.unpack(">I", enc[8:12])
    assert enc[12:16] == b"IHDR" and length == 13
    crc = struct.unpack(">I", enc[29:33])[0]
    assert crc == (zlib.crc32(enc[12:29]) & 0xFFFFFFFF)


def _manual_png(raw: np.ndarray, filter_id: int) -> bytes:
    """Build a PNG whose every row uses the given filter (decode-path test)."""
    h, w = raw.shape

    def paeth(a, b, c):
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        return a if pa <= pb and pa <= pc else (b if pb <= pc else c)

    lines = []
    prev = [0] * w
    for y in range(h):
        row = raw[y].tolist()
        out = [filter_id]
        for i in range(w):
            left = row[i - 1] if i > 0 else 0
            ul = prev[i - 1] if i > 0 else 0
            if filter_id == 3:
                out.append((row[i] - ((left + prev[i]) >> 1)) & 0xFF)
            elif filter_id == 4:
                out.append((row[i] - paeth(left, prev[i], ul)) & 0xFF)
            else:
                raise ValueError(filter_id)
        prev = row
        lines.extend(out)

    def chunk(tag, p):
        return (struct.pack(">I", len(p)) + tag + p
                + struct.pack(">I", zlib.crc32(tag + p) & 0xFFFFFFFF))

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(lines)))
            + chunk(b"IEND", b""))


@pytest.mark.parametrize("filter_id", [3, 4])
def test_png_average_and_paeth_decode(filter_id):
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 256, (5, 8), dtype=np.uint8)
    assert np.array_equal(decode_png(_manual_png(raw, filter_id)), raw)


def test_png_rejects_garbage():
    with pytest.raises(ValueError, match="signature"):
        decode_png(b"not a png at all")


def test_codec_dispatch_png():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    buf = encode_image(img, "png")
    assert np.array_equal(decode_image(buf, 8, 8, "png"), img)
    with pytest.raises(ValueError, match="metadata"):
        decode_image(buf, 9, 9, "png")


def test_scanned_pdf_roundtrip():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, (120, 90), dtype=np.uint8)
    pdf = build_scanned_pdf(img)
    assert pdf.startswith(b"%PDF-1.4")
    assert np.array_equal(extract_page_image(pdf), img)
    assert np.array_equal(decode_image(pdf, 90, 120, "pdf"), img)


def test_scanned_pdf_dct_roundtrip():
    """DCTDecode XObject (embedded JPEG scan) decodes via the numpy JPEG
    codec — the reference's most common scanned-PDF flavor
    (tesseract_engine.py:133-141 rasterizes these with poppler)."""
    from norsk_historisk_avis_ocr_ray.synth import pagegen

    rng = np.random.default_rng(3)
    img = pagegen.render_page(rng, 2, pagegen.INK, False,
                              ["dct pdf", "page"], height=400)[0]
    pdf = build_scanned_pdf(img, codec="jpeg:95")
    assert b"/DCTDecode" in pdf
    out = extract_page_image(pdf)
    assert out.shape == img.shape
    # lossy: near-lossless at q95 on synthetic pages
    assert np.mean(np.abs(out.astype(int) - img.astype(int))) < 3.0


def test_vector_pdf_rejected():
    with pytest.raises(ValueError, match="vector-content"):
        extract_page_image(b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog >>\nendobj\n")


def test_extract_runs_over_png_and_pdf_pages(ray_session):
    """e2e: the synthetic golden corpus re-encoded as PNG and scanned-PDF
    pages produces span-identical output to the raw-zlib run."""
    import pyarrow as pa

    import ray
    from norsk_historisk_avis_ocr_ray.pipelines.extract import extract
    from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus

    tables = make_corpus(12, seed=42)
    pages = tables["pages"]
    imgs = [decode_image(b, w, h, c) for b, w, h, c in zip(
        pages["image"].to_pylist(), pages["width"].to_pylist(),
        pages["height"].to_pylist(), pages["codec"].to_pylist())]
    # half the pages as PNG, half as scanned PDF
    payloads, codecs = [], []
    for i, img in enumerate(imgs):
        if i % 2 == 0:
            payloads.append(encode_png(img))
            codecs.append("png")
        else:
            payloads.append(build_scanned_pdf(img))
            codecs.append("pdf")
    recoded = pa.table({
        "media_ref": pages["media_ref"],
        "image": pa.array(payloads, pa.binary()),
        "width": pages["width"],
        "height": pages["height"],
        "codec": pa.array(codecs, pa.string()),
    })
    docs = ray.data.from_arrow(tables["documents"])
    base = extract(docs, pages).to_pandas()
    got = extract(ray.data.from_arrow(tables["documents"]),
                  recoded).to_pandas()
    base = base.sort_values("doc_id").reset_index(drop=True)
    got = got.sort_values("doc_id").reset_index(drop=True)
    assert got["combined"].tolist() == base["combined"].tolist()
    assert got["transcribed"].tolist() == base["transcribed"].tolist()
    assert int(got["n_errors"].sum()) == 0


# -- JPEG (pure-numpy baseline codec, sources/jpeg.py) ------------------------

def test_jpeg_roundtrip_near_lossless_at_high_quality():
    from norsk_historisk_avis_ocr_ray.sources.jpeg import decode_jpeg, encode_jpeg

    g = (np.linspace(0, 255, 200)[None, :] * np.ones((120, 1))).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(g, quality=95))
    assert out.shape == g.shape
    assert np.abs(g.astype(int) - out.astype(int)).max() <= 2


def test_jpeg_quality_tradeoff_monotonic():
    from norsk_historisk_avis_ocr_ray.sources.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (64, 96), dtype=np.uint8)
    sizes, errs = [], []
    for q in (95, 75, 50):
        buf = encode_jpeg(img, q)
        out = decode_jpeg(buf)
        sizes.append(len(buf))
        errs.append(np.abs(img.astype(int) - out.astype(int)).mean())
    assert sizes[0] > sizes[1] > sizes[2]
    assert errs[0] < errs[1] < errs[2]


def test_jpeg_odd_dimensions():
    from norsk_historisk_avis_ocr_ray.sources.jpeg import decode_jpeg, encode_jpeg

    img = np.full((257, 333), 200, np.uint8)
    img[::13, ::7] = 30
    out = decode_jpeg(encode_jpeg(img, 90))
    assert out.shape == (257, 333)


def test_jpeg_codec_dispatch_and_quality_param():
    img = np.tile(np.arange(128, dtype=np.uint8), (64, 1))
    hi = encode_image(img, "jpeg:95")
    lo = encode_image(img, "jpeg:50")
    assert len(hi) > len(lo)
    out = decode_image(hi, 128, 64, "jpeg")
    assert out.shape == (64, 128)
    with pytest.raises(ValueError):  # dims metadata validated
        decode_image(hi, 10, 10, "jpeg")


def test_jpeg_rejects_progressive_and_garbage():
    from norsk_historisk_avis_ocr_ray.sources.jpeg import decode_jpeg, encode_jpeg

    with pytest.raises(ValueError):
        decode_jpeg(b"not a jpeg")
    buf = bytearray(encode_jpeg(np.zeros((8, 8), np.uint8), 75))
    sof = buf.find(b"\xFF\xC0")
    buf[sof + 1] = 0xC2  # flip SOF0 -> SOF2 (progressive)
    with pytest.raises(NotImplementedError):
        decode_jpeg(bytes(buf))


def test_jpeg_layout_survives_lossy_cycle():
    """Layout detection survives a q95 JPEG cycle — T5 parity: lossy payload
    encoding must not break the geometric extraction path. (The mock pixel
    barcode intentionally does NOT survive lossy codecs — it stores literal
    byte values per pixel — so only geometry is asserted here; text parity
    for JPEG pages is covered by the near-lossless pixel-error bounds.)"""
    from norsk_historisk_avis_ocr_ray.sources.jpeg import decode_jpeg, encode_jpeg
    from norsk_historisk_avis_ocr_ray.stages.layout import split_columns
    from norsk_historisk_avis_ocr_ray.synth import pagegen

    rng = np.random.default_rng(5)
    img, truth = pagegen.render_page(rng, 2, pagegen.INK, False,
                                     ["venstre tekst", "hoyre tekst"], "",
                                     height=1200)
    out = decode_jpeg(encode_jpeg(img, quality=95))
    layout = split_columns(out)
    assert layout.n_cols == 2
    assert all(abs(a - b) <= 3
               for a, b in zip(layout.boundaries, truth.boundaries))


# -- TIFF (pure-numpy codec, sources/tiff.py) ---------------------------------

def _tiff_with_strips(img, comp, strips, e="<"):
    """Hand-build a TIFF with given compression id and raw strip payloads."""
    import struct as st

    h, w = img.shape
    rows_per_strip = (h + len(strips) - 1) // len(strips)
    n_entries = 10
    ifd_off = 8
    # strip data laid out after the IFD
    data_off = ifd_off + 2 + n_entries * 12 + 4 + 8 * len(strips)
    offsets, counts = [], []
    pos = data_off
    for s in strips:
        offsets.append(pos)
        counts.append(len(s))
        pos += len(s)
    # offsets/counts arrays (may exceed 4 bytes → store after IFD entries)
    arr_off = ifd_off + 2 + n_entries * 12 + 4
    pre = "<" if e == "<" else ">"
    head = (b"II*\x00" if e == "<" else b"MM\x00*") + st.pack(pre + "I", 8)
    def entry(tag, typ, cnt, val):
        if typ == 3 and cnt == 1:  # SHORT values are left-justified
            return st.pack(pre + "HHIHH", tag, typ, cnt, val, 0)
        return st.pack(pre + "HHII", tag, typ, cnt, val)
    if len(strips) == 1:
        off_entry = entry(273, 4, 1, offsets[0])
        cnt_entry = entry(279, 4, 1, counts[0])
        arrs = b""
        # no external arrays → data starts at arr_off
        shift = arr_off - data_off
        offsets = [o + shift for o in offsets]
        off_entry = entry(273, 4, 1, offsets[0])
    else:
        off_entry = entry(273, 4, len(strips), arr_off)
        cnt_entry = entry(279, 4, len(strips), arr_off + 4 * len(strips))
        arrs = st.pack(pre + "I" * len(strips), *offsets) \
            + st.pack(pre + "I" * len(strips), *counts)
    ifd = st.pack(pre + "H", n_entries)
    ifd += entry(256, 4, 1, w) + entry(257, 4, 1, h) + entry(258, 3, 1, 8)
    ifd += entry(259, 3, 1, comp) + entry(262, 3, 1, 1)
    ifd += off_entry + entry(277, 3, 1, 1) + entry(278, 4, 1, rows_per_strip)
    ifd += cnt_entry + entry(317, 3, 1, 1)
    ifd += st.pack(pre + "I", 0)
    return head + ifd + arrs + b"".join(strips)


def test_tiff_roundtrip_uncompressed():
    from norsk_historisk_avis_ocr_ray.sources.tiff import decode_tiff, encode_tiff

    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (33, 47), dtype=np.uint8)
    out = decode_tiff(encode_tiff(img))
    np.testing.assert_array_equal(out, img)


def test_tiff_codec_dispatch():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    buf = encode_image(img, "tiff")
    np.testing.assert_array_equal(decode_image(buf, 8, 8, "tiff"), img)
    np.testing.assert_array_equal(decode_image(buf, 8, 8, "tif"), img)


def test_tiff_packbits_strips_and_big_endian():
    from norsk_historisk_avis_ocr_ray.sources.tiff import decode_tiff

    img = np.zeros((6, 10), np.uint8)
    img[1] = 200
    img[4, 3:7] = 17

    def packbits(row):  # literal-only encoding is valid PackBits
        out = bytearray()
        for i in range(0, len(row), 128):
            lit = row[i:i + 128]
            out += bytes([len(lit) - 1]) + bytes(lit.tolist())
        return bytes(out)

    strips = [packbits(img[0:3].ravel()), packbits(img[3:6].ravel())]
    for e in ("<", ">"):
        buf = _tiff_with_strips(img, 32773, strips, e=e)
        np.testing.assert_array_equal(decode_tiff(buf), img)

    # run-compressed form too: 10 x 200 = (257-10+... ) replicate op
    rep = bytes([256 - 9, 200])  # -9 → repeat next byte 10 times
    lit = packbits(img[2].ravel())
    one_row = np.vstack([img[1], img[2]])
    strips = [rep + lit]
    buf = _tiff_with_strips(one_row, 32773, strips)
    np.testing.assert_array_equal(decode_tiff(buf), one_row)


def test_tiff_lzw_known_vector():
    """Hand-verified TIFF-LZW bitstream for b'aaabbb' (codes 256,97,258,98,
    260,257 at 9 bits): exercises CLEAR, literal, KwKwK, and EOI paths."""
    from norsk_historisk_avis_ocr_ray.sources.tiff import _unlzw, decode_tiff

    data = bytes([0x80, 0x18, 0x60, 0x46, 0x28, 0x24, 0x04])
    assert _unlzw(data, 6) == b"aaabbb"

    img = np.frombuffer(b"aaabbb", np.uint8).reshape(2, 3)
    buf = _tiff_with_strips(img, 5, [data])
    np.testing.assert_array_equal(decode_tiff(buf), img)


def test_tiff_rejects_unsupported():
    from norsk_historisk_avis_ocr_ray.sources.tiff import decode_tiff

    with pytest.raises(ValueError):
        decode_tiff(b"PK\x03\x04 not a tiff")
    img = np.zeros((4, 4), np.uint8)
    buf = _tiff_with_strips(img, 4, [b"\x00" * 16])  # CCITT G4
    with pytest.raises(NotImplementedError):
        decode_tiff(buf)
