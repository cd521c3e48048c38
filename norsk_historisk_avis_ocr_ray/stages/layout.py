"""Page-layout analysis: column segmentation + title detection.

A vectorized (numpy) reimplementation of the reference's three-phase layout
algorithm, with identical parameter semantics:

- ``find_band_dividers``   — reference ``_columns.py:121-209`` (L1): per-band
  vertical dark-pixel projection → peak runs → drift clustering → band-
  persistence filter.
- ``find_gap_boundaries``  — reference ``_columns.py:212-291`` (L2): per-row
  light-run gap-coverage profile → 15px moving average → expected-width-guided
  boundary search. Coverage is built from the run edges of each search
  window in one pass (run-length form), not by testing every g-wide window.
- ``detect_title_region``  — reference ``_columns.py:4-118`` (L3): per-column
  blank-row scan of the top 40%, last large gap (≥40 blank rows) → elevated
  column grouping → title box.
- ``split_columns``        — reference ``_columns.py:421-524`` (L4): orchestrates
  L1→L2→L3, merges boundaries, drops <30px segments, emits crop boxes.

The reference computes all of this with pure-Python per-pixel loops (its single
biggest performance liability, ``_columns.py:151-155,241-257``); here every
profile is an Arrow/numpy reduction, so a 2200×2900 page costs a few
milliseconds instead of seconds.  Functions take a uint8 HxW grayscale ndarray.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sources.codec import band_profiles

DARK_THRESHOLD = 200
OVERLAP_PX = 20
ESTIMATED_COL_WIDTH = 730  # ~700-750px columns at 300 DPI (reference fallback)


def find_band_dividers(
    img: np.ndarray,
    threshold: int = DARK_THRESHOLD,
    band_height: int = 200,
    drift_px: int = 15,
    min_band_frac: float = 0.50,
    profiles: list[tuple[int, np.ndarray]] | None = None,
) -> list[int]:
    """Detect ink divider lines via horizontal-band vertical projections.

    ``profiles`` are the per-band column dark counts
    (``sources.codec.band_profiles``); the page kernel passes the ones
    ``decode_with_band_profiles`` returned with the page, otherwise they
    are computed here."""
    width = img.shape[1]
    if profiles is None:
        profiles = band_profiles(img, threshold, band_height)
    band_peaks = [_run_centers(v_profile >= band_h * 0.8, width)
                  for band_h, v_profile in profiles]

    if not band_peaks:
        return []

    # Greedy sequential clustering against running cluster means (±drift_px).
    clusters: list[list[tuple[int, int]]] = []
    means: list[float] = []
    for b_idx, peaks in enumerate(band_peaks):
        for px in peaks:
            best, best_dist = None, drift_px + 1
            for ci, mean_x in enumerate(means):
                dist = abs(px - mean_x)
                if dist <= drift_px and dist < best_dist:
                    best_dist, best = dist, ci
            if best is not None:
                clusters[best].append((b_idx, px))
                means[best] = sum(x for _, x in clusters[best]) / len(clusters[best])
            else:
                clusters.append([(b_idx, px)])
                means.append(float(px))

    min_bands = max(1, int(len(band_peaks) * min_band_frac))
    divider_xs = [
        int(sum(x for _, x in c) / len(c))
        for c in clusters
        if len({b for b, _ in c}) >= min_bands
    ]
    divider_xs.sort()
    return divider_xs


def _run_centers(mask: np.ndarray, width: int) -> list[int]:
    """Centers of True runs; a run ending at the image edge uses width-1."""
    if not mask.any():
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = edges[::2], edges[1::2]  # runs are [start, end)
    centers = []
    for s, e in zip(starts, ends):
        if e >= width:  # ran to the edge
            centers.append((s + width - 1) // 2)
        else:
            centers.append((s + e) // 2)
    return centers


def find_gap_boundaries(
    img: np.ndarray,
    x_start: int,
    x_end: int,
    y_start: int,
    y_end: int,
    expected_col_width: int,
    threshold: int = DARK_THRESHOLD,
    min_gap_px: int = 8,
    min_coverage: float = 0.55,
) -> list[int]:
    """Gap-coverage boundary search inside one wide segment."""
    seg_width = x_end - x_start
    height = y_end - y_start
    if seg_width < 50 or height < 50:
        return []

    n_expected = round(seg_width / expected_col_width)
    if n_expected < 2:
        return []

    g = min_gap_px
    half_w = 7
    search_radius = int(expected_col_width * 0.3)
    boundaries = []
    for b in range(1, n_expected):
        expected_rx = int(b * seg_width / n_expected)
        w_lo = max(50, expected_rx - search_radius)
        w_hi = min(seg_width - 50, expected_rx + search_radius)
        if w_lo >= w_hi:
            continue
        # Coverage is only read inside [w_lo, w_hi]; compute it on a slice
        # extended by the ±7 smoothing margin and g-1 pixels, which is exact:
        # "j lies in a light run of length >= g" is local within g-1 pixels.
        # Run-length form: pad each row with a dark column on both sides,
        # take the run edges of the flattened mask in one pass, keep runs of
        # length >= g (clipped to the slice, so a run counts exactly when an
        # all-light g-window inside the slice holds it), and count covered
        # rows per column with a +1/-1 cumsum.
        c0 = max(0, w_lo - half_w - (g - 1))
        c1 = min(seg_width, w_hi + 1 + half_w + (g - 1))
        sw = c1 - c0
        pw = sw + 2
        pf = np.empty((height, pw), dtype=bool)
        pf[:, 0] = pf[:, -1] = False
        np.greater_equal(img[y_start:y_end, x_start + c0:x_start + c1],
                         threshold, out=pf[:, 1:-1])
        flat = pf.ravel()
        edges = np.flatnonzero(flat[1:] != flat[:-1])
        starts, ends = edges[::2], edges[1::2]      # runs are [start, end)
        long_run = ends - starts >= g
        coverage = np.cumsum(
            np.bincount(starts[long_run] % pw, minlength=sw + 1)
            - np.bincount(ends[long_run] % pw, minlength=sw + 1))[:sw]

        # 15px centered moving average (never clamped: w_lo-7 >= 43 > 0).
        csum = np.concatenate(([0.0], np.cumsum(coverage)))
        j = np.arange(w_lo - c0, w_hi + 1 - c0)
        smoothed = (csum[j + half_w + 1] - csum[j - half_w]) / (2 * half_w + 1) / height

        best = int(np.argmax(smoothed))             # first max, as in the reference
        if smoothed[best] >= min_coverage:
            boundaries.append(x_start + w_lo + best)
    return boundaries


def detect_title_region(
    img: np.ndarray,
    boundaries: list[int],
    threshold: int = DARK_THRESHOLD,
) -> tuple[tuple[int, int, int, int] | None, list[int]]:
    """Find a multi-column title region at the top of the page.

    Returns ``(title_box, body_top_per_col)`` where ``title_box`` is
    ``(x0, y0, x1, y1)`` or None, and ``body_top_per_col`` gives, per column,
    the y where body text begins (0 for columns without a title above).
    """
    height, width = img.shape
    n_cols = len(boundaries) - 1
    if n_cols < 2:
        return None, [0] * max(n_cols, 1)

    large_gap_min = 40
    scan_limit = int(height * 0.40)
    blank_frac = 0.01
    # Per-row dark counts per column strip: one fused compare+sum per strip,
    # each temp mask a few hundred KB. The last strip extends to the image
    # edge, as np.add.reduceat(bounds=boundaries[:-1]) would; round 5
    # measured that one-mask reduceat form 3x slower (its inner loop is
    # scalar).
    row_counts = np.empty((scan_limit, n_cols), dtype=np.int16)
    for ci in range(n_cols):
        sl = boundaries[ci]
        sr = boundaries[ci + 1] if ci < n_cols - 1 else width
        np.sum(img[:scan_limit, sl:sr] < threshold, axis=1,
               dtype=np.int16, out=row_counts[:, ci])

    body_start_y = []
    for ci in range(n_cols):
        x0, x1 = boundaries[ci], boundaries[ci + 1]
        col_width = x1 - x0
        if col_width < 30:
            body_start_y.append(0)
            continue
        blank = row_counts[:, ci] < col_width * blank_frac
        # Last run of >= large_gap_min blank rows that *ends* (hits a non-blank
        # row) before scan_limit; body starts at the row after it.
        last_end = 0
        padded = np.concatenate(([False], blank))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        starts, ends = edges[::2], edges[1::2]
        # Only gaps closed by a non-blank row inside the window count (a run
        # still open at scan_limit gets e == scan_limit from the pad — skip it).
        for s, e in zip(starts, ends):
            if e - s >= large_gap_min and e < blank.size:
                last_end = int(e)
        body_start_y.append(last_end)

    min_title_height = int(height * 0.05)
    elevated = [i for i in range(n_cols) if body_start_y[i] > min_title_height]
    if not elevated:
        return None, [0] * n_cols

    groups: list[list[int]] = [[elevated[0]]]
    for i in elevated[1:]:
        if i == groups[-1][-1] + 1:
            groups[-1].append(i)
        else:
            groups.append([i])
    title_cols = max(groups, key=len)  # first max → leftmost on ties

    title_bottom = max(body_start_y[c] for c in title_cols)
    title_left = boundaries[title_cols[0]]
    title_right = boundaries[title_cols[-1] + 1]

    body_top = [0] * n_cols
    for c in title_cols:
        body_top[c] = body_start_y[c]
    return (title_left, 0, title_right, title_bottom), body_top


@dataclass
class LayoutResult:
    boundaries: list[int] = field(default_factory=list)  # final column boundaries
    body_top: list[int] = field(default_factory=list)    # per-column body start y
    title_box: tuple[int, int, int, int] | None = None
    # Ordered crop boxes: optional ('header', box) first, then ('column', box)
    # left→right — reading order, exactly the reference's section order.
    regions: list[tuple[str, tuple[int, int, int, int]]] = field(default_factory=list)

    @property
    def n_cols(self) -> int:
        return max(len(self.boundaries) - 1, 0)


def split_columns(
    img: np.ndarray, overlap_px: int = OVERLAP_PX,
    band_profiles: list[tuple[int, np.ndarray]] | None = None,
) -> LayoutResult:
    """Full three-phase layout: dividers → gap fallback → title → crop boxes."""
    height, width = img.shape

    divider_xs = find_band_dividers(img, profiles=band_profiles)
    phase1 = [0] + divider_xs + [width]

    seg_widths = sorted(phase1[i + 1] - phase1[i] for i in range(len(phase1) - 1))
    median_width = seg_widths[len(seg_widths) // 2] if seg_widths else width
    if not divider_xs and width > ESTIMATED_COL_WIDTH * 1.5:
        median_width = ESTIMATED_COL_WIDTH

    gap_y_start = int(height * 0.4)
    all_boundaries = set(phase1)
    for i in range(len(phase1) - 1):
        seg_l, seg_r = phase1[i], phase1[i + 1]
        if seg_r - seg_l > median_width * 1.5:
            all_boundaries.update(
                find_gap_boundaries(img, seg_l, seg_r, gap_y_start, height,
                                    expected_col_width=median_width, min_gap_px=15)
            )

    merged = sorted(all_boundaries)
    final = [merged[0]]
    for i in range(len(merged) - 1):  # narrow segments merge into the next one
        if merged[i + 1] - merged[i] < 30:
            continue
        final.append(merged[i + 1])

    title_box, body_top = detect_title_region(img, final)

    regions: list[tuple[str, tuple[int, int, int, int]]] = []
    if title_box is not None:
        regions.append(("header", title_box))
    n_cols = len(final) - 1
    for i in range(n_cols):
        crop_l = max(0, final[i] - overlap_px)
        crop_r = min(width, final[i + 1] + overlap_px)
        top = body_top[i] if i < len(body_top) else 0
        regions.append(("column", (crop_l, top, crop_r, height)))

    if n_cols < 1:  # nothing croppable → whole page as one region (no title)
        return LayoutResult(boundaries=final, body_top=body_top, title_box=None,
                            regions=[("column", (0, 0, width, height))])
    return LayoutResult(boundaries=final, body_top=body_top, title_box=title_box,
                        regions=regions)
