"""S8 debug rendering: annotated-page bundle parity (_columns.py:294-418)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from norsk_historisk_avis_ocr_ray.sources.codec import RAW_ZLIB, encode_image
from norsk_historisk_avis_ocr_ray.sources.png import decode_png
from norsk_historisk_avis_ocr_ray.stages.debug_render import (
    DebugRenderStage,
    annotate_page,
    detection_info,
    render_debug,
    render_debug_bundle,
)
from norsk_historisk_avis_ocr_ray.stages.layout import split_columns
from norsk_historisk_avis_ocr_ray.synth import pagegen
from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus


@pytest.fixture(scope="module")
def titled_page():
    rng = np.random.default_rng(7)
    texts = [f"kolonne {i} tekst her" for i in range(3)]
    img, truth = pagegen.render_page(rng, 3, pagegen.INK, True, texts,
                                     "avis tittel", height=2000)
    return img, truth


def test_annotated_page_draws_boundaries_and_title(titled_page):
    img, _ = titled_page
    layout = split_columns(img)
    assert layout.n_cols == 3 and layout.title_box is not None

    canvas = annotate_page(img, layout)
    assert canvas.shape == (*img.shape, 3) and canvas.dtype == np.uint8

    # Interior boundaries are blue vertical lines; below the title region
    # (the green overlay covers them inside it, like the reference).
    below = max(layout.body_top) + 20
    for bx in layout.boundaries:
        if 0 < bx < img.shape[1]:
            line = canvas[below:, bx].astype(int)
            assert (line[:, 2] > line[:, 0]).all(), f"no blue line at x={bx}"

    # Title region is green-tinted (G channel lifted above R and B inside).
    tl, _, tr, tb = layout.title_box
    inner = canvas[2 : tb - 2, tl + 6 : tr - 6].astype(int)
    assert (inner[:, :, 1].mean() > inner[:, :, 0].mean()
            and inner[:, :, 1].mean() > inner[:, :, 2].mean())

    # Overlap shading: red channel lifted next to a boundary.
    bx = layout.boundaries[1]
    strip = canvas[1500, bx + 4 : bx + 12].astype(int)
    assert strip[:, 0].mean() > strip[:, 2].mean()


def test_bundle_files_and_info(titled_page):
    img, _ = titled_page
    layout = split_columns(img)
    bundle = render_debug_bundle(img, layout)

    assert "page_annotated.png" in bundle and "title_crop.png" in bundle
    for i in range(layout.n_cols):
        assert f"column_{i + 1}_crop.png" in bundle

    # Every PNG round-trips through the pure-numpy codec.
    annotated = decode_png(bundle["page_annotated.png"])
    assert annotated.shape[:2] == img.shape
    tcrop = decode_png(bundle["title_crop.png"])
    x0, y0, x1, y1 = layout.title_box
    assert tcrop.shape == (y1 - y0, x1 - x0)
    np.testing.assert_array_equal(tcrop, img[y0:y1, x0:x1])

    info = bundle["detection_info.txt"].decode()
    assert f"Columns: {layout.n_cols}" in info
    assert "Title detected: columns" in info
    assert f"Boundaries: {layout.boundaries}" in info


def test_untitled_page_info():
    rng = np.random.default_rng(11)
    img, _ = pagegen.render_page(rng, 1, pagegen.INK, False,
                                 ["en kolonne"], "", height=1200)
    layout = split_columns(img)
    assert layout.title_box is None
    info = detection_info(layout, img.shape[1], img.shape[0])
    assert "Title detected: none" in info
    bundle = render_debug_bundle(img, layout)
    assert "title_crop.png" not in bundle


@pytest.fixture
def pages_dir(tmp_path, titled_page):
    img, truth = titled_page
    pages = pa.Table.from_pylist([{
        "media_ref": "p-0", "image": encode_image(img),
        "width": truth.width, "height": truth.height, "codec": RAW_ZLIB,
    }])
    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(pages, d / "part-0.parquet")
    return str(d)


def _bundles(out_dir):
    """Every file under ``out_dir`` → its bytes, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = fh.read()
    return out


def test_render_debug_stage_resumable(ray_session, tmp_path, pages_dir):
    out_dir = str(tmp_path / "debug")

    summary = render_debug(pages_dir, out_dir).to_pandas()
    assert len(summary) == 1 and not summary["skipped"].iloc[0]
    assert summary["title_detected"].iloc[0]
    page_dir = os.path.join(out_dir, "p-0")
    assert os.path.exists(os.path.join(page_dir, "page_annotated.png"))
    assert os.path.exists(os.path.join(page_dir, "detection_info.txt"))
    assert os.path.exists(os.path.join(page_dir, "_DONE"))

    # Second run skips the finished page.
    summary2 = render_debug(pages_dir, out_dir).to_pandas()
    assert summary2["skipped"].iloc[0]


def test_render_debug_finishes_with_one_free_cpu(ray_session, tmp_path,
                                                 pages_dir):
    # an actor holds 3 of the session's 4 CPUs for the whole run: the read
    # and render tasks must share the one CPU left, not stall; a stall fails
    # the deadline instead of hanging
    import threading

    import ray

    free_dir, busy_dir = str(tmp_path / "free"), str(tmp_path / "busy")
    render_debug(pages_dir, free_dir).materialize()

    @ray.remote(num_cpus=3)
    class Hog:
        def ready(self):
            return True

    hog = Hog.remote()
    done = {}
    try:
        ray.get(hog.ready.remote())
        out = render_debug(pages_dir, busy_dir)
        t = threading.Thread(
            target=lambda: done.setdefault("rows", out.to_pandas()), daemon=True)
        t.start()
        t.join(timeout=120)
    finally:
        ray.kill(hog)
    assert "rows" in done, "debug pass stalled"
    assert len(done["rows"]) == 1
    free = _bundles(free_dir)
    assert "p-0/page_annotated.png" in free and free == _bundles(busy_dir)


def test_undecodable_page_is_an_error_row_not_a_batch_abort(tmp_path):
    # page 0 claims 50 columns fewer than its payload has: it fails to
    # decode, page 1 of the same batch still gets its bundle
    good = make_corpus(8, seed=7)["pages"].slice(0, 2)
    width = good["width"].to_pylist()
    width[0] -= 50
    bad = good.set_column(good.schema.get_field_index("width"), "width",
                          pa.array(width, good.schema.field("width").type))
    ref0, ref1 = good["media_ref"].to_pylist()
    out_dir = str(tmp_path / "debug")

    rows = DebugRenderStage(out_dir)(bad).to_pylist()
    assert [r["media_ref"] for r in rows] == [ref0, ref1]
    assert rows[0]["error"].startswith("ValueError: raw-zlib")
    assert rows[0]["n_files"] == 0 and not rows[0]["skipped"]
    assert not os.path.exists(os.path.join(out_dir, ref0))
    assert rows[1]["error"] is None and rows[1]["n_files"] > 0
    assert os.path.exists(os.path.join(out_dir, ref1, "_DONE"))

    # no marker for the failed page: a re-run with its metadata mended
    # renders it and skips the finished one
    rows = DebugRenderStage(out_dir)(good).to_pylist()
    assert [(r["skipped"], r["error"]) for r in rows] == [(False, None),
                                                          (True, None)]
    assert os.path.exists(os.path.join(out_dir, ref0, "_DONE"))
