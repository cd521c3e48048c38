"""The page kernel's decode step: ``decode_with_band_profiles`` must give
the same pixels and band profiles as ``decode_image`` + ``band_profiles``,
reject raw-zlib payloads that do not inflate to exactly width*height bytes,
and read the ``image`` column as zero-copy buffers; a mis-sized page is a
per-page error, never a sheared page. ``inflate_exact`` gives the same
pixels, profiles and exceptions on its libdeflate path and on its stdlib
fallback, and a zlib bomb costs no memory beyond the page."""

import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pyarrow as pa
import pytest

from norsk_historisk_avis_ocr_ray.pipelines.sharded import process_shard
from norsk_historisk_avis_ocr_ray.sources import codec
from norsk_historisk_avis_ocr_ray.sources.codec import (
    band_profiles,
    decode_image,
    decode_with_band_profiles,
    encode_image,
)
from norsk_historisk_avis_ocr_ray.sources.pdf import build_scanned_pdf
from norsk_historisk_avis_ocr_ray.sources.png import _chunk, encode_png
from norsk_historisk_avis_ocr_ray.stages.layout import find_band_dividers
from norsk_historisk_avis_ocr_ray.stages.ocr import (
    MockBarcodeOcr,
    _payloads,
    ocr_pages,
)
from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus


def _int16_profiles(img, threshold=200, band_height=200):
    """The int16 accumulator the one-byte profiles replaced."""
    height = img.shape[0]
    out = []
    for b in range(max(1, height // band_height)):
        y0, y1 = b * band_height, min((b + 1) * band_height, height)
        if y1 - y0 >= 20:
            out.append((y1 - y0,
                        (img[y0:y1] < threshold).sum(axis=0, dtype=np.int16)))
    return out


def _same(a, b):
    return [h for h, _ in a] == [h for h, _ in b] and all(
        np.array_equal(p, q) for (_, p), (_, q) in zip(a, b))


@pytest.mark.parametrize("shape,fill", [
    ((150, 300), None),   # shorter than one band: one 150-row band
    ((10, 40), None),     # one band under 20 rows: no profile at all
    ((415, 260), None),   # two bands and a 15-row tail (ignored)
    ((219, 301), None),   # one band and a 19-row tail
    ((400, 333), 0),      # all-dark 200-row bands: the uint8 maximum, 200
    ((600, 128), 255),    # all light
])
def test_decode_profiles_match_decode_image(shape, fill):
    rng = np.random.default_rng(shape[0])
    img = (rng.integers(0, 256, shape, dtype=np.uint8) if fill is None
           else np.full(shape, fill, np.uint8))
    buf = encode_image(img)
    got_img, got = decode_with_band_profiles(buf, shape[1], shape[0])
    assert np.array_equal(got_img, img)
    want = band_profiles(decode_image(buf, shape[1], shape[0]), 200, 200)
    assert _same(got, want)
    assert _same(got, _int16_profiles(img))
    assert all(p.dtype == np.uint8 for _, p in got)
    if fill == 0:
        assert all(int(p.max()) == 200 for _, p in got)


def test_bands_taller_than_255_rows_count_in_uint16():
    img = np.full((600, 90), 255, np.uint8)
    img[:, 40:43] = 0                   # one full-height divider
    buf = encode_image(img)
    _, got = decode_with_band_profiles(buf, 90, 600, band_height=300)
    assert [h for h, _ in got] == [300, 300]
    assert all(p.dtype == np.uint16 and int(p.max()) == 300 for _, p in got)
    assert _same(got, band_profiles(img, 200, 300))
    assert _same(got, _int16_profiles(img, band_height=300))
    assert find_band_dividers(img, band_height=300) == [41]


@pytest.mark.parametrize("meta_width", [350, 450])
def test_raw_zlib_payload_must_inflate_to_width_times_height(meta_width):
    # a 400x300 page under 350x300 (longer stream) or 450x300 (shorter)
    # metadata
    img = np.random.default_rng(0).integers(0, 256, (300, 400), np.uint8)
    buf = encode_image(img)
    with pytest.raises(ValueError, match="raw-zlib"):
        decode_with_band_profiles(buf, meta_width, 300)
    with pytest.raises(ValueError):
        decode_image(buf, meta_width, 300)


def test_raw_zlib_stream_must_be_complete():
    img = np.random.default_rng(1).integers(0, 256, (300, 400), np.uint8)
    buf = encode_image(img)
    for cut in (1, 4, len(buf) // 2):   # checksum only, or pixels too
        with pytest.raises(ValueError, match="raw-zlib"):
            decode_with_band_profiles(buf[:-cut], 400, 300)
    img_ok, _ = decode_with_band_profiles(buf + b"trailing", 400, 300)
    assert np.array_equal(img_ok, img)  # bytes after the stream's end


@pytest.mark.parametrize("codec", ["raw-zlib", "png", "tiff"])
def test_buffer_payload_decodes_like_bytes(codec):
    img = np.random.default_rng(2).integers(0, 256, (230, 170), np.uint8)
    buf = encode_image(img, codec)
    a_img, a = decode_with_band_profiles(buf, 170, 230, codec)
    b_img, b = decode_with_band_profiles(pa.py_buffer(buf), 170, 230, codec)
    assert np.array_equal(a_img, img) and np.array_equal(b_img, img)
    assert _same(a, b)


def test_payloads_are_zero_copy_slices():
    col = pa.chunked_array([
        pa.array([b"ab", None, b"cde", b""]).slice(1),
        pa.array([], pa.binary()),
        pa.array([b"xyz"], pa.large_binary()).cast(pa.binary()),
    ])
    got = list(_payloads(col))
    assert [None if b is None else b.to_pybytes() for b in got] == \
        [None, b"cde", b"", b"xyz"]
    data = col.chunks[0].buffers()[2]
    assert data.address <= got[1].address < data.address + data.size


def _span_key(spans):
    return [(s["kind"], s["text"], s["media_ref"])
            for s in sorted(spans, key=lambda s: s["offset"])]


def test_mis_sized_pages_are_page_errors_in_process_shard():
    corpus = make_corpus(40, seed=11)
    pages = corpus["pages"]
    width = pages["width"].to_pylist()
    # page 0 claims 50 columns fewer than its payload has (longer stream),
    # page 1 claims 50 more (shorter stream)
    bad = {pages["media_ref"][0].as_py(), pages["media_ref"][1].as_py()}
    width[0] -= 50
    width[1] += 50
    pages = pages.set_column(pages.schema.get_field_index("width"), "width",
                             pa.array(width, pages.schema.field("width").type))

    regions = ocr_pages(pages, MockBarcodeOcr()).to_pylist()
    errors = {r["media_ref"]: r["error"] for r in regions if r["error"]}
    assert set(errors) == set(bad)
    assert all(e.startswith("ValueError: raw-zlib") for e in errors.values())

    out = {r["doc_id"]: r for r in
           process_shard(corpus["documents"], pages, MockBarcodeOcr()).to_pylist()}
    golden = {g["doc_id"]: g for g in corpus["golden"].to_pylist()}
    assert set(out) == set(golden)
    # one error row per media span that names a bad page
    n_bad = {d["doc_id"]: sum(s["media_ref"] in bad for s in d["spans"])
             for d in corpus["documents"].to_pylist()}
    hit = {d for d, n in n_bad.items() if n}
    assert hit
    for doc_id, g in golden.items():
        r = out[doc_id]
        if doc_id in hit:
            assert r["n_errors"] == n_bad[doc_id], doc_id
            assert all(s["text"] == "" for s in r["spans"]
                       if s["media_ref"] in bad), doc_id
        else:
            assert r["n_errors"] == 0, doc_id
            assert _span_key(r["spans"]) == _span_key(g["spans"]), doc_id
            assert r["combined"] == g["combined"], doc_id
            assert r["transcribed"] == g["transcribed"], doc_id


# --- inflate_exact: the libdeflate path against the stdlib fallback -------

def _outcome(fn):
    try:
        return fn()
    except Exception as e:
        return e


def _both_paths(monkeypatch, fn):
    """``fn()`` on the libdeflate path, then on the stdlib fallback (forced
    by patching the loader); each gives its result or its exception."""
    if codec._libdeflate() is None:
        pytest.skip("libdeflate is not installed")
    fast = _outcome(fn)
    with monkeypatch.context() as m:
        m.setattr(codec, "_libdeflate", lambda: None)
        slow = _outcome(fn)
    return fast, slow


def test_libdeflate_loads_on_first_inflate_not_at_import():
    code = ("import numpy as np\n"
            "from norsk_historisk_avis_ocr_ray.sources import codec\n"
            "loaded = codec._libdeflate.cache_info().currsize\n"
            "page = np.zeros((2, 3), np.uint8)\n"
            "codec.decode_image(codec.encode_image(page), 3, 2)\n"
            "print(loaded, codec._libdeflate.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["0", "1"]


@pytest.mark.parametrize("shape,fill", [
    ((300, 400), None),    # random page
    ((700, 500), None),    # incompressible: input spans many 32 KiB steps
    ((2000, 1500), 255),   # all light: many output steps per input step
    ((0, 0), None),        # empty page
    ((1, 300), None),      # one row
    ((150, 300), None),    # shorter than a band
    ((219, 301), None),    # one band and a 19-row tail
    ((415, 260), None),    # two bands and a 15-row tail
])
def test_inflate_paths_agree_on_pages(monkeypatch, shape, fill):
    rng = np.random.default_rng(sum(shape))
    img = (rng.integers(0, 256, shape, dtype=np.uint8) if fill is None
           else np.full(shape, fill, np.uint8))
    buf = encode_image(img)
    fast, slow = _both_paths(
        monkeypatch, lambda: decode_with_band_profiles(buf, shape[1], shape[0]))
    for got_img, got in (fast, slow):
        assert np.array_equal(got_img, img)
        assert _same(got, band_profiles(img, 200, 200))
    assert _same(fast[1], slow[1])


def _bad_payloads():
    img = np.random.default_rng(3).integers(0, 256, (300, 400), np.uint8)
    buf = encode_image(img)
    return {
        "longer": (buf, 350),           # inflates past 350x300
        "shorter": (buf, 450),          # ends short of 450x300
        "truncated": (buf[:len(buf) // 2], 400),
        "checksum-cut-1": (buf[:-1], 400),
        "checksum-cut-4": (buf[:-4], 400),
        "empty": (b"", 400),
        "garbage": (bytes(np.random.default_rng(4).integers(
            0, 256, 5000, dtype=np.uint8)), 400),
        "not-zlib": (b"not a zlib stream at all", 400),
    }


@pytest.mark.parametrize("case", list(_bad_payloads()))
def test_inflate_paths_agree_on_bad_payloads(monkeypatch, case):
    buf, width = _bad_payloads()[case]
    fast, slow = _both_paths(
        monkeypatch, lambda: decode_with_band_profiles(buf, width, 300))
    assert type(fast) is ValueError and type(slow) is ValueError
    assert str(fast) == str(slow)
    assert str(fast).startswith("raw-zlib payload ")


def test_inflate_paths_ignore_trailing_bytes(monkeypatch):
    img = np.random.default_rng(5).integers(0, 256, (300, 400), np.uint8)
    buf = encode_image(img) + b"trailing"
    fast, slow = _both_paths(monkeypatch, lambda: decode_image(buf, 400, 300))
    assert np.array_equal(fast, img) and np.array_equal(slow, img)


def test_null_image_is_one_error_row_on_both_paths(monkeypatch):
    pages = pa.table({"media_ref": ["p-null"],
                      "image": pa.array([None], pa.binary()),
                      "width": pa.array([40], pa.int32()),
                      "height": pa.array([30], pa.int32()),
                      "codec": ["raw-zlib"]})
    fast, slow = _both_paths(
        monkeypatch, lambda: ocr_pages(pages, MockBarcodeOcr()).to_pylist())
    for rows in (fast, slow):
        assert len(rows) == 1 and rows[0]["media_ref"] == "p-null"
        assert rows[0]["error"] and rows[0]["text"] == ""
    assert fast[0]["error"].split(":")[0] == slow[0]["error"].split(":")[0]


def _bomb(page_bytes, factor=1000):
    """A zlib stream of ``factor * page_bytes`` zeros, built a page at a time."""
    co = zlib.compressobj(9)
    zeros = bytes(page_bytes)
    return b"".join([co.compress(zeros) for _ in range(factor)] + [co.flush()])


def test_bomb_is_stopped_at_the_page_on_both_paths(monkeypatch):
    w, h = 512, 512
    bomb = _bomb(w * h)

    def peak():
        tracemalloc.start()
        try:
            err = _outcome(lambda: decode_image(bomb, w, h))
            return err, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (fast, fast_peak), (slow, slow_peak) = _both_paths(monkeypatch, peak)
    for err, used in ((fast, fast_peak), (slow, slow_peak)):
        assert type(err) is ValueError and "inflates to more than" in str(err)
        assert used < 2 * w * h, used


def _png_with_idat(img, split=None, cut=0):
    """``encode_png(img)`` with its IDAT split in two at ``split`` and/or
    cut short by ``cut`` bytes."""
    png = encode_png(img)
    pos = png.index(b"IDAT") - 4
    n = int.from_bytes(png[pos:pos + 4], "big")
    idat = png[pos + 8:pos + 8 + n]
    idat = idat[:len(idat) - cut]
    parts = [idat] if split is None else [idat[:split], idat[split:]]
    return (png[:pos] + b"".join(_chunk(b"IDAT", p) for p in parts)
            + _chunk(b"IEND", b""))


def test_png_idat_paths_agree(monkeypatch):
    img = np.random.default_rng(6).integers(0, 256, (60, 90), np.uint8)
    for payload in (_png_with_idat(img), _png_with_idat(img, split=100)):
        fast, slow = _both_paths(
            monkeypatch, lambda: decode_image(payload, 90, 60, "png"))
        assert np.array_equal(fast, img) and np.array_equal(slow, img)


@pytest.mark.parametrize("cut", [4, 200])
def test_truncated_png_idat_is_a_value_error(monkeypatch, cut):
    img = np.random.default_rng(7).integers(0, 256, (60, 90), np.uint8)
    payload = _png_with_idat(img, cut=cut)
    fast, slow = _both_paths(
        monkeypatch, lambda: decode_image(payload, 90, 60, "png"))
    assert type(fast) is ValueError and type(slow) is ValueError
    assert str(fast) == str(slow) and str(fast).startswith("PNG IDAT ")


def test_truncated_pdf_stream_is_a_value_error(monkeypatch):
    img = np.random.default_rng(8).integers(0, 256, (120, 90), np.uint8)
    data = zlib.compress(img.tobytes(), 6)
    pdf = build_scanned_pdf(img)
    assert data in pdf and f"/Length {len(data)} ".encode() in pdf
    cut = data[:len(data) // 2]
    bad = pdf.replace(data, cut).replace(f"/Length {len(data)} ".encode(),
                                         f"/Length {len(cut)} ".encode())
    fast, slow = _both_paths(monkeypatch, lambda: decode_image(pdf, 90, 120, "pdf"))
    assert np.array_equal(fast, img) and np.array_equal(slow, img)
    fast, slow = _both_paths(monkeypatch, lambda: decode_image(bad, 90, 120, "pdf"))
    assert type(fast) is ValueError and type(slow) is ValueError
    assert str(fast) == str(slow)
    assert str(fast).startswith("PDF FlateDecode stream ")
