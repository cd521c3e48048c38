"""S8 debug rendering: annotated-page bundles (reference ``_columns.py:294-418``).

Flag-gated, off the hot path: a separate ``map_batches`` pass over the
*pages* dataset, run as Ray tasks like the OCR stage, that re-runs layout
analysis and writes, per page, the reference's debug bundle under
``debug_dir/<media_ref>/``:

- ``page_annotated.png``   — blue column-boundary lines, green title box with
  shaded fill + "TITLE" label, green per-column body-top lines, red
  semi-transparent overlap shading, blue column-number labels
- ``title_crop.png``       — the header crop, when a title was detected
- ``column_<i>_crop.png``  — per-column crops with overlap padding
- ``detection_info.txt``   — boundaries / title / per-column geometry report

The reference draws with PIL; this container has no imaging library, so the
drawing primitives (lines, rectangles, alpha fills, a 3x5 bitmap font) are
~40 lines of numpy over an HxWx3 uint8 canvas, and the PNGs come from the
pure-numpy codec in ``sources.png``. Output layout is one directory per page
so a re-run can skip finished pages (resumable, like every sink here).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..sources.codec import decode_with_band_profiles
from ..sources.png import encode_png
from .layout import DARK_THRESHOLD, OVERLAP_PX, LayoutResult, split_columns
from .ocr import page_rows

BLUE = np.array([40, 40, 220], np.uint8)
GREEN = np.array([0, 200, 0], np.uint8)
RED = np.array([255, 0, 0], np.uint8)

# 3x5 bitmap glyphs for column labels + "TITLE" (rows top→bottom, 3 bits each).
_GLYPHS = {
    "0": "111101101101111", "1": "010110010010111", "2": "111001111100111",
    "3": "111001111001111", "4": "101101111001001", "5": "111100111001111",
    "6": "111100111101111", "7": "111001001001001", "8": "111101111101111",
    "9": "111101111001111", "T": "111010010010010", "I": "111010010010111",
    "L": "100100100100111", "E": "111100111100111",
}


def _draw_text(canvas: np.ndarray, x: int, y: int, text: str,
               color: np.ndarray, scale: int = 3) -> None:
    h, w = canvas.shape[:2]
    for ch in text:
        bits = _GLYPHS.get(ch)
        if bits is None:
            x += 4 * scale
            continue
        g = np.frombuffer(bits.encode(), np.uint8).reshape(5, 3) == ord("1")
        g = np.repeat(np.repeat(g, scale, 0), scale, 1)
        gy, gx = g.shape
        y1, x1 = min(y + gy, h), min(x + gx, w)
        if y < h and x < w:
            region = canvas[y:y1, x:x1]
            region[g[: y1 - y, : x1 - x]] = color
        x += (3 + 1) * scale


def _vline(canvas: np.ndarray, x: int, color: np.ndarray, width: int = 2) -> None:
    canvas[:, max(0, x) : min(canvas.shape[1], x + width)] = color


def _hline(canvas: np.ndarray, y: int, x0: int, x1: int,
           color: np.ndarray, width: int = 4) -> None:
    canvas[max(0, y) : min(canvas.shape[0], y + width), max(0, x0) : x1] = color


def _blend_rect(canvas: np.ndarray, box: tuple[int, int, int, int],
                color: np.ndarray, alpha: float) -> None:
    x0, y0, x1, y1 = box
    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(canvas.shape[1], x1), min(canvas.shape[0], y1)
    if x1 <= x0 or y1 <= y0:
        return
    region = canvas[y0:y1, x0:x1].astype(np.float32)
    canvas[y0:y1, x0:x1] = (region * (1 - alpha) + color * alpha).astype(np.uint8)


def _outline_rect(canvas: np.ndarray, box: tuple[int, int, int, int],
                  color: np.ndarray, width: int = 5) -> None:
    x0, y0, x1, y1 = box
    _blend_rect(canvas, (x0, y0, x1, y0 + width), color, 1.0)
    _blend_rect(canvas, (x0, y1 - width, x1, y1), color, 1.0)
    _blend_rect(canvas, (x0, y0, x0 + width, y1), color, 1.0)
    _blend_rect(canvas, (x1 - width, y0, x1, y1), color, 1.0)


def annotate_page(img: np.ndarray, layout: LayoutResult) -> np.ndarray:
    """Grayscale page + layout → annotated RGB canvas (reference parity:
    ``_save_debug_images``, ``_columns.py:294-418``)."""
    height, width = img.shape
    canvas = np.repeat(img[:, :, None], 3, axis=2)
    boundaries = layout.boundaries
    n_cols = layout.n_cols
    body_top = list(layout.body_top) + [0] * max(0, n_cols - len(layout.body_top))

    for bx in boundaries:
        if 0 < bx < width:
            _vline(canvas, bx, BLUE, width=2)

    title_cols: list[int] = []
    if layout.title_box is not None:
        title_cols = [i for i in range(n_cols) if body_top[i] > 0]
        if title_cols:
            tl = boundaries[title_cols[0]]
            tr = boundaries[title_cols[-1] + 1]
            tb = max(body_top[c] for c in title_cols)
            _blend_rect(canvas, (tl, 0, tr, tb), GREEN, 50 / 255)
            _outline_rect(canvas, (tl, 0, tr, tb), GREEN, width=5)
            _draw_text(canvas, tl + 10, 8, "TITLE", GREEN)

    for i in range(n_cols):
        if body_top[i] > 0 and i not in title_cols:
            _hline(canvas, body_top[i], boundaries[i], boundaries[i + 1],
                   GREEN, width=4)

    for bx in boundaries:
        if 0 < bx < width:
            _blend_rect(canvas, (bx - OVERLAP_PX, 0, bx + OVERLAP_PX, height),
                        RED, 40 / 255)

    for i in range(n_cols):
        cx = (boundaries[i] + boundaries[i + 1]) // 2
        label_y = body_top[i] + 10 if body_top[i] > 0 else 10
        _draw_text(canvas, cx - 10, label_y, str(i + 1), BLUE)
    return canvas


def detection_info(layout: LayoutResult, width: int, height: int) -> str:
    """The reference's ``detection_info.txt`` report (``_columns.py:383-418``)."""
    boundaries = layout.boundaries
    n_cols = layout.n_cols
    body_top = list(layout.body_top) + [0] * max(0, n_cols - len(layout.body_top))
    lines = [
        f"Image size: {width} x {height}",
        f"Overlap padding: {OVERLAP_PX}px",
        f"Boundaries: {boundaries}",
        f"Columns: {n_cols}",
    ]
    if layout.title_box is not None:
        tl, _, tr, tb = layout.title_box
        title_cols = [i for i in range(n_cols) if body_top[i] > 0]
        lines.append(
            f"Title detected: columns {[c + 1 for c in title_cols]}, "
            f"x={tl}-{tr}, y=0-{tb}")
        lines.append(f"Title crop size: {tr - tl} x {tb}")
    else:
        lines.append("Title detected: none")
    lines.append(f"Body top per column: {body_top}")
    lines.append("")
    for i in range(n_cols):
        w = boundaries[i + 1] - boundaries[i]
        pad_l = min(OVERLAP_PX, boundaries[i])
        pad_r = min(OVERLAP_PX, width - boundaries[i + 1])
        lines.append(
            f"  Column {i + 1}: x={boundaries[i]}-{boundaries[i + 1]}, "
            f"width={w}px, crop={w + pad_l + pad_r}px "
            f"(pad L={pad_l} R={pad_r}), body_top={body_top[i]}")
    return "\n".join(lines) + "\n"


def render_debug_bundle(img: np.ndarray, layout: LayoutResult) -> dict[str, bytes]:
    """One page → ``{filename: bytes}`` debug bundle (reference file names)."""
    height, width = img.shape
    out: dict[str, bytes] = {
        "page_annotated.png": encode_png(annotate_page(img, layout)),
        "detection_info.txt": detection_info(layout, width, height).encode(),
    }
    if layout.title_box is not None:
        x0, y0, x1, y1 = layout.title_box
        out["title_crop.png"] = encode_png(img[y0:y1, x0:x1])
    boundaries = layout.boundaries
    body_top = (list(layout.body_top)
                + [0] * max(0, layout.n_cols - len(layout.body_top)))
    for i in range(layout.n_cols):
        left = max(0, boundaries[i] - OVERLAP_PX)
        right = min(width, boundaries[i + 1] + OVERLAP_PX)
        if right - left < 30:
            continue
        out[f"column_{i + 1}_crop.png"] = encode_png(
            img[body_top[i] :, left:right])
    return out


DEBUG_OUT_SCHEMA = pa.schema([
    ("media_ref", pa.string()),
    ("n_cols", pa.int32()),
    ("title_detected", pa.bool_()),
    ("n_files", pa.int32()),
    ("skipped", pa.bool_()),
    ("error", pa.string()),
])


# Pages per task: rows carry full-page image payloads.
BATCH_SIZE = 8


class DebugRenderStage:
    """Ray form of the debug pass, like ``LayoutOcrStage``: a callable
    instance passed to ``map_batches`` runs as Ray tasks. Per page: decode →
    layout → write the annotated bundle under ``debug_dir/<media_ref>/``.
    Resumable: a page whose ``_DONE`` marker exists is skipped. A page that
    fails gets a row with its ``error``, no bundle and no marker (a re-run
    retries it); the rest of the batch goes on, as in ``ocr_pages``."""

    def __init__(self, debug_dir: str):
        self.debug_dir = debug_dir
        os.makedirs(debug_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for ref, buf, w, h, codec in page_rows(batch):
            page_dir = os.path.join(self.debug_dir, str(ref))
            skipped = os.path.exists(os.path.join(page_dir, "_DONE"))
            row = {"media_ref": ref, "n_cols": 0, "title_detected": False,
                   "n_files": 0, "skipped": skipped, "error": None}
            if not skipped:
                try:
                    row.update(_render_page(buf, w, h, codec, page_dir))
                except Exception as e:  # per-page error row, never batch abort
                    row["error"] = f"{type(e).__name__}: {e}"
            rows.append(row)
        return pa.Table.from_pylist(rows, schema=DEBUG_OUT_SCHEMA)


def _render_page(buf, w: int, h: int, codec: str, page_dir: str) -> dict:
    """Decode → layout → one page's bundle and ``_DONE`` marker under
    ``page_dir``; returns the page's summary fields."""
    img, profiles = decode_with_band_profiles(
        buf, w, h, codec, threshold=DARK_THRESHOLD)
    layout = split_columns(img, band_profiles=profiles)
    bundle = render_debug_bundle(img, layout)
    os.makedirs(page_dir, exist_ok=True)
    for name, payload in bundle.items():
        with open(os.path.join(page_dir, name), "wb") as f:
            f.write(payload)
    with open(os.path.join(page_dir, "_DONE"), "w") as f:
        f.write("ok\n")
    return {"n_cols": layout.n_cols,
            "title_detected": layout.title_box is not None,
            "n_files": len(bundle)}


def render_debug(pages, debug_dir: str):
    """Flag-gated debug pass: ``pages`` is a ``ray.data.Dataset`` with
    ``media_ref/image/width/height/codec`` columns (or a parquet dir path).
    Returns the summary Dataset (consume it to drive the writes). Every
    step is a task, so the pass shares whatever CPUs the session has free."""
    import ray.data

    if isinstance(pages, str):
        pages = ray.data.read_parquet(pages)
    return pages.map_batches(DebugRenderStage(debug_dir),
                             batch_format="pyarrow", batch_size=BATCH_SIZE)
