"""The page kernel's decode step: ``decode_with_band_profiles`` must give
the same pixels and band profiles as ``decode_image`` + ``band_profiles``,
reject raw-zlib payloads that do not inflate to exactly width*height bytes,
and read the ``image`` column as zero-copy buffers; a mis-sized page is a
per-page error, never a sheared page. ``inflate_exact`` gives the same
pixels, profiles and exceptions on its libdeflate path and on its stdlib
fallback, and a zlib bomb costs no memory beyond the page. A shard's pages
streamed in record batches (``PageStream``) give the same output as the
whole table, raise on a corrupt file, and never hold the ``image`` column
twice."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from norsk_historisk_avis_ocr_ray.pipelines import sharded
from norsk_historisk_avis_ocr_ray.pipelines.sharded import (
    PageStream,
    load_shard,
    process_shard,
)
from norsk_historisk_avis_ocr_ray.schema import DOCUMENTS_SCHEMA
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
    PAGE_COLUMNS,
    PAGE_REGION_SCHEMA,
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
    got = [b for chunk in col.chunks for b in _payloads(chunk)]
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
           process_shard([(corpus["documents"], pages)],
                         MockBarcodeOcr()).to_pylist()}
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


# --- the shard loader: pages streamed in record batches ---------------------

@pytest.fixture(scope="module")
def small_corpus():
    return make_corpus(8, seed=7)


def _write(tmp_path, name, table, **kw):
    path = str(tmp_path / name)
    pq.write_table(table, path, **kw)
    return path


@pytest.mark.parametrize("row_group_size,batch_bytes", [
    (None, sharded.PAGE_BATCH_BYTES),  # one row group, one batch
    (None, 1),                         # one row group, one page per batch
    (2, sharded.PAGE_BATCH_BYTES),     # one batch across 2-page row groups
    (2, 1),
])
def test_streamed_pages_equal_whole_table_read(small_corpus, tmp_path,
                                               monkeypatch, row_group_size,
                                               batch_bytes):
    monkeypatch.setattr(sharded, "PAGE_BATCH_BYTES", batch_bytes)
    path = _write(tmp_path, "pages.parquet", small_corpus["pages"],
                  row_group_size=row_group_size)
    stream = PageStream(path)
    assert stream.num_rows == small_corpus["pages"].num_rows
    n = stream.num_rows
    assert [b.num_rows for b in stream] == ([1] * n if batch_bytes == 1
                                            else [n])
    table = pq.read_table(path, columns=PAGE_COLUMNS)
    engine = MockBarcodeOcr()
    assert ocr_pages(stream, engine).equals(ocr_pages(table, engine))
    docs = small_corpus["documents"]
    assert process_shard([(docs, stream)], engine).equals(
        process_shard([(docs, table)], engine))


def test_zero_row_pages_file_makes_every_media_span_missing(small_corpus,
                                                            tmp_path):
    path = _write(tmp_path, "pages.parquet", small_corpus["pages"].slice(0, 0))
    stream = PageStream(path)
    assert stream.num_rows == 0 and stream.batch_size == 1
    engine = MockBarcodeOcr()
    regions = ocr_pages(stream, engine)
    assert regions.num_rows == 0 and regions.schema == PAGE_REGION_SCHEMA
    docs = small_corpus["documents"]
    out = process_shard([(docs, stream)], engine)
    assert out.equals(process_shard([(docs, None)], engine))
    rows = out.to_pylist()
    assert sum(r["n_errors"] for r in rows) > 0
    for r in rows:  # every media span (it keeps its media_ref) is an error
        media = [s for s in r["spans"] if s["media_ref"]]
        assert r["n_errors"] == len(media), r["doc_id"]
        assert all(s["text"] == "" for s in media), r["doc_id"]


def test_null_image_in_stream_is_one_error_row_beside_good_page(
        small_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(sharded, "PAGE_BATCH_BYTES", 1)  # a batch per page
    good = small_corpus["pages"].slice(0, 1)
    null = good.set_column(good.schema.get_field_index("image"), "image",
                           pa.array([None], pa.binary()))
    null = null.set_column(0, "media_ref", pa.array(["p-null"]))
    path = _write(tmp_path, "pages.parquet", pa.concat_tables([null, good]))
    engine = MockBarcodeOcr()
    rows = ocr_pages(PageStream(path), engine).to_pylist()
    assert rows[0]["media_ref"] == "p-null" and rows[0]["text"] == ""
    assert rows[0]["error"]
    assert rows[1:] == ocr_pages(good, engine).to_pylist()
    assert all(r["error"] is None for r in rows[1:])


def test_pages_file_without_a_page_column_raises(small_corpus, tmp_path):
    # the batch reader would skip the column; the loader must not
    path = _write(tmp_path, "pages.parquet",
                  small_corpus["pages"].drop_columns(["codec"]))
    with pytest.raises(ValueError, match="codec"):
        PageStream(path)


def test_corrupt_page_in_stream_raises_like_whole_read(small_corpus, tmp_path,
                                                      monkeypatch):
    # the last row group's image pages overwritten: the pages before it
    # stream (a batch per page) and are OCR'd, then the read must raise,
    # never end with fewer pages
    monkeypatch.setattr(sharded, "PAGE_BATCH_BYTES", 1)
    path = _write(tmp_path, "pages.parquet", small_corpus["pages"],
                  row_group_size=2)
    meta = pq.ParquetFile(path).metadata
    col = meta.row_group(meta.num_row_groups - 1).column(
        small_corpus["pages"].schema.get_field_index("image"))
    start = col.dictionary_page_offset or col.data_page_offset
    raw = bytearray(open(path, "rb").read())
    raw[start:start + col.total_compressed_size] = \
        b"\xff" * col.total_compressed_size
    with open(path, "wb") as f:
        f.write(raw)
    with pytest.raises(OSError):  # what the whole-table read raised
        pq.read_table(path, columns=PAGE_COLUMNS)
    docs_file = _write(tmp_path, "docs.parquet", small_corpus["documents"])
    with pytest.raises(OSError):
        process_shard([load_shard({"shard": "s", "docs_file": docs_file,
                                   "pages_file": path})], MockBarcodeOcr())


def test_stream_holds_the_image_column_about_once(tmp_path):
    # 100 uncompressed 1 MiB TIFF pages (decoded as views of their
    # payloads), ``image`` written without a dictionary as the benchmark
    # corpora are: the shard's peak RSS growth stays near one copy of the
    # column (the decompressed data page) plus a batch. A whole-table read
    # holds the data page and a full Arrow copy of the column at once
    # (>2x). Arrow's max_memory() cannot tell the two apart: the binary
    # reader reserves the rest of the data page for every batch, untouched,
    # so both read ~2x there. jemalloc's decay is set to 0 so freed batches
    # leave RSS at once instead of after its decay time. The peak is VmHWM:
    # a child's ru_maxrss starts at its parent's RSS at the fork.
    from norsk_historisk_avis_ocr_ray.sources.codec import encode_image

    n, side = 100, 1024
    page = np.full((side, side), 255, np.uint8)
    page[::64] = 0
    pages = pa.table({
        "media_ref": [f"p{i}" for i in range(n)],
        "image": pa.array([encode_image(page, "tiff")] * n, pa.binary()),
        "width": pa.array([side] * n, pa.int32()),
        "height": pa.array([side] * n, pa.int32()),
        "codec": ["tiff"] * n})
    column_mb = pages["image"].nbytes / 2**20
    docs = pa.Table.from_pylist(
        [{"doc_id": f"d{i}", "spans": [{"kind": "media", "text": "",
                                        "media_ref": f"p{i}", "offset": 0}]}
         for i in range(n)], schema=DOCUMENTS_SCHEMA)
    shard = {"shard": "s",
             "docs_file": _write(tmp_path, "docs.parquet", docs),
             "pages_file": _write(tmp_path, "pages.parquet", pages,
                                  use_dictionary=["media_ref", "codec"])}
    del pages
    code = textwrap.dedent(f"""
        import pyarrow as pa
        from norsk_historisk_avis_ocr_ray.pipelines.sharded import (
            load_shard, process_shard)
        from norsk_historisk_avis_ocr_ray.stages.ocr import MockBarcodeOcr

        def status_kb(key):  # this process's own memory, not its parent's
            with open("/proc/self/status") as f:
                return int(next(l for l in f if l.startswith(key)).split()[1])

        pa.jemalloc_set_decay_ms(0)
        engine = MockBarcodeOcr()
        rss0 = status_kb("VmRSS:")
        out = process_shard([load_shard({shard!r})], engine)
        print((status_kb("VmHWM:") - rss0) / 1024, out.num_rows)
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-4000:]
    grew_mb, n_out = r.stdout.split()
    assert int(n_out) == n
    assert float(grew_mb) / column_mb < 1.75, (grew_mb, column_mb)
