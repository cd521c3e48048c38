"""Layout-analysis unit tests: divider detection (L1), gap-coverage fallback
(L2), title detection (L3), split_columns orchestration (L4) — parameter
semantics of reference _columns.py, verified on synthetic rasters with known
geometry."""

import numpy as np
import pytest

from norsk_historisk_avis_ocr_ray.stages.layout import (
    detect_title_region,
    find_band_dividers,
    find_gap_boundaries,
    split_columns,
)
from norsk_historisk_avis_ocr_ray.synth import pagegen


def make_rng():
    return np.random.default_rng(7)


def render(n_cols, style, has_title=False, title_text="t tekst", height=2000):
    rng = make_rng()
    texts = [f"kolonne {i} tekst her" for i in range(n_cols)]
    return pagegen.render_page(rng, n_cols, style, has_title, texts,
                               title_text if has_title else "", height=height)


class TestBandDividers:
    def test_ink_dividers_found_exactly(self):
        img, truth = render(3, pagegen.INK)
        xs = find_band_dividers(img)
        assert xs == truth.boundaries[1:-1]

    def test_no_dividers_in_gutter_page(self):
        img, _ = render(3, pagegen.GUTTER)
        assert find_band_dividers(img) == []

    def test_single_column_no_dividers(self):
        img, _ = render(1, pagegen.INK)
        assert find_band_dividers(img) == []

    def test_drift_clustering(self):
        # a divider drifting ±6px across bands is one cluster near the mean
        img = np.full((1000, 800), 255, np.uint8)
        for b in range(5):
            x = 400 + (b % 2) * 6
            img[b * 200:(b + 1) * 200, x:x + 2] = 0
        xs = find_band_dividers(img)
        assert len(xs) == 1
        assert abs(xs[0] - 403) <= 3

    def test_band_persistence_filter(self):
        # a divider present in only 2 of 10 bands (<50%) is rejected
        img = np.full((2000, 800), 255, np.uint8)
        img[0:400, 400:402] = 0
        assert find_band_dividers(img) == []


class TestGapBoundaries:
    def test_gutter_boundaries_found(self):
        img, truth = render(3, pagegen.GUTTER)
        h, w = img.shape
        xs = find_gap_boundaries(img, 0, w, int(h * 0.4), h,
                                 expected_col_width=730, min_gap_px=15)
        assert len(xs) == 2
        for found, ideal in zip(xs, truth.boundaries[1:-1]):
            assert abs(found - ideal) <= 40

    def test_min_coverage_rejects_textless_gap(self):
        # all-dark segment: no light runs → no boundaries
        img = np.zeros((1000, 1500), np.uint8)
        assert find_gap_boundaries(img, 0, 1500, 0, 1000, 730) == []

    def test_small_segment_skipped(self):
        img = np.full((1000, 40), 255, np.uint8)
        assert find_gap_boundaries(img, 0, 40, 0, 1000, 730) == []

    def test_single_expected_column_skipped(self):
        img = np.full((1000, 800), 255, np.uint8)
        assert find_gap_boundaries(img, 0, 800, 0, 1000, 730) == []


def _find_gap_boundaries_r4(img, x_start, x_end, y_start, y_end,
                            expected_col_width, threshold=200,
                            min_gap_px=8, min_coverage=0.55):
    """The round-4 cumsum formulation (driver-hash-proven e2e), kept as the
    equivalence reference for the run-length rewrite."""
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
        c0 = max(0, w_lo - half_w - (g - 1))
        c1 = min(seg_width, w_hi + 1 + half_w + (g - 1))
        sw = c1 - c0
        if sw - g + 1 <= 0:
            coverage = np.zeros(sw, dtype=np.float64)
        else:
            idx = np.arange(sw)
            k_hi = np.minimum(idx, sw - g) + 1
            k_lo = np.maximum(idx - g + 1, 0)
            light = (img[y_start:y_end, x_start + c0:x_start + c1]
                     >= threshold)
            cs = np.zeros((height, sw + 1), dtype=np.int32)
            np.cumsum(light, axis=1, out=cs[:, 1:])
            ok = (cs[:, g:] - cs[:, :-g]) == g
            okc = np.zeros((height, sw - g + 2), dtype=np.int32)
            np.cumsum(ok, axis=1, out=okc[:, 1:])
            coverage = ((okc[:, k_hi] - okc[:, k_lo]) > 0).sum(
                axis=0, dtype=np.int32).astype(np.float64)
        csum = np.concatenate(([0.0], np.cumsum(coverage)))
        j = np.arange(w_lo - c0, w_hi + 1 - c0)
        smoothed = (csum[j + half_w + 1] - csum[j - half_w]) \
            / (2 * half_w + 1) / height
        best = int(np.argmax(smoothed))
        if smoothed[best] >= min_coverage:
            boundaries.append(x_start + w_lo + best)
    return boundaries


class TestGapBoundaryEquivalence:
    """The run-length rewrite must match the round-4 cumsum formulation
    bit-for-bit on randomized inputs, across gap widths and segment
    geometries (incl. slice-at-segment-edge clamps and the
    sw < min_gap_px degenerate)."""

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(1234)
        for trial in range(60):
            h = int(rng.integers(50, 400))
            w = int(rng.integers(120, 900))
            colw = int(rng.integers(40, max(41, w // 2 + 1)))
            g = int(rng.integers(2, 21))
            thr = int(rng.integers(100, 240))
            # mostly-dark page with planted light gutters + noise
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            n_g = int(rng.integers(0, 4))
            for _ in range(n_g):
                gx = int(rng.integers(0, max(1, w - g)))
                img[:, gx:gx + g + int(rng.integers(0, 5))] = 250
            # speckle some gutters so coverage is fractional
            mask = rng.random((h, w)) < 0.02
            img[mask] = 0
            x0 = int(rng.integers(0, 30))
            x1 = w - int(rng.integers(0, 30))
            y0 = int(rng.integers(0, 10))
            y1 = h - int(rng.integers(0, 10))
            got = find_gap_boundaries(img, x0, x1, y0, y1, colw,
                                      threshold=thr, min_gap_px=g)
            want = _find_gap_boundaries_r4(img, x0, x1, y0, y1, colw,
                                           threshold=thr, min_gap_px=g)
            assert got == want, (trial, h, w, colw, g, thr)

    def test_tiny_gap_param(self):
        # g=1: every light pixel is its own window (degenerate shifts)
        img = np.full((200, 600), 0, np.uint8)
        img[:, 295:305] = 255
        got = find_gap_boundaries(img, 0, 600, 0, 200, 300, min_gap_px=1)
        want = _find_gap_boundaries_r4(img, 0, 600, 0, 200, 300,
                                       min_gap_px=1)
        assert got == want

    def test_gap_wider_than_segment(self):
        # min_gap_px wider than the whole segment: no window fits anywhere
        img = np.full((200, 600), 255, np.uint8)
        got = find_gap_boundaries(img, 0, 600, 0, 200, 300, min_gap_px=700)
        want = _find_gap_boundaries_r4(img, 0, 600, 0, 200, 300,
                                       min_gap_px=700)
        assert got == want == []

    @pytest.mark.parametrize("g", [1, 2, 15, 40])
    @pytest.mark.parametrize("fill", [0, 255])
    def test_uniform_windows(self, g, fill):
        # all-dark (no runs at all) and all-light (one run per row, from
        # slice edge to slice edge) windows
        img = np.full((120, 900), fill, np.uint8)
        for x0, x1 in ((0, 900), (37, 861)):
            got = find_gap_boundaries(img, x0, x1, 0, 120, 300, min_gap_px=g)
            want = _find_gap_boundaries_r4(img, x0, x1, 0, 120, 300,
                                           min_gap_px=g)
            assert got == want, (x0, x1)

    @pytest.mark.parametrize("g", [1, 3, 15])
    def test_runs_touching_slice_edges(self, g):
        # light runs that cross the margin-extended slice on either side
        # (clipped to shorter than g, or not) and runs that end exactly at
        # the segment edges; the segment is x in [20, 820), expected column
        # 400 → one window, slice [w_lo-7-(g-1), w_hi+8+(g-1)) around 400
        rng = np.random.default_rng(g)
        img = np.zeros((90, 840), np.uint8)
        seg0, seg1 = 20, 820
        w_lo, w_hi = 400 - 120, 400 + 120
        c0 = seg0 + w_lo - 7 - (g - 1)
        c1 = seg0 + w_hi + 1 + 7 + (g - 1)
        for row in range(90):
            for edge in (c0, c1):
                a = edge - int(rng.integers(0, 2 * g + 2))
                img[row, a:a + int(rng.integers(1, 3 * g + 3))] = 255
            img[row, seg0:seg0 + int(rng.integers(0, 2 * g + 2))] = 255
            img[row, seg1 - int(rng.integers(0, 2 * g + 2)):seg1] = 255
            gx = int(rng.integers(c0, c1))
            img[row, gx:gx + int(rng.integers(g, g + 20))] = 255
        got = find_gap_boundaries(img, seg0, seg1, 0, 90, 400, min_gap_px=g,
                                  min_coverage=0.0)
        want = _find_gap_boundaries_r4(img, seg0, seg1, 0, 90, 400,
                                       min_gap_px=g, min_coverage=0.0)
        assert got == want and len(got) == 1

    @pytest.mark.parametrize("g", [1, 2, 15])
    def test_runs_of_exactly_min_gap(self, g):
        # a run of exactly g covers its columns, one of g-1 covers nothing
        img = np.zeros((60, 900), np.uint8)
        img[:, 380:380 + g] = 255
        img[:, 460:460 + g - 1] = 255
        got = find_gap_boundaries(img, 0, 900, 0, 60, 450, min_gap_px=g,
                                  min_coverage=0.0)
        want = _find_gap_boundaries_r4(img, 0, 900, 0, 60, 450,
                                       min_gap_px=g, min_coverage=0.0)
        assert got == want == [372 + g]  # first 15px window holding it

    def test_gap_wider_than_search_window_still_covers(self):
        # g wider than the search window but inside the margin-extended
        # slice: every position is covered on an all-light page — both
        # formulations must agree (boundary at w_lo)
        img = np.full((200, 600), 255, np.uint8)
        got = find_gap_boundaries(img, 0, 600, 0, 200, 300, min_gap_px=500)
        want = _find_gap_boundaries_r4(img, 0, 600, 0, 200, 300,
                                       min_gap_px=500)
        assert got == want == [210]


class TestTitleRegion:
    def test_title_detected(self):
        img, truth = render(3, pagegen.INK, has_title=True)
        box, body_top = detect_title_region(img, truth.boundaries)
        assert box is not None
        x0, y0, x1, y1 = box
        t0, t1 = truth.title_cols
        assert x0 == truth.boundaries[t0]
        assert x1 == truth.boundaries[t1]
        assert y0 == 0
        assert y1 == pagegen.TITLE_BODY_TOP
        for c in range(truth.n_cols):
            expected = pagegen.TITLE_BODY_TOP if t0 <= c < t1 else 0
            assert body_top[c] == expected

    def test_no_title(self):
        img, truth = render(3, pagegen.INK, has_title=False)
        box, body_top = detect_title_region(img, truth.boundaries)
        assert box is None
        assert body_top == [0] * truth.n_cols

    def test_single_column_never_titled(self):
        img, _ = render(1, pagegen.INK)
        box, body_top = detect_title_region(img, [0, img.shape[1]])
        assert box is None and body_top == [0]

    def test_open_gap_at_scan_limit_not_counted(self):
        # blank gap still open at 40% height must not register (reference
        # only registers a gap when a non-blank row closes it in-window)
        img = np.full((2000, 1460), 255, np.uint8)
        img[0:30, 20:1440] = 0      # title-ish block in both columns
        # rows 30..800 blank — the 40% scan limit cuts at 800, gap never closes
        img[900:1900, 20:700] = 0
        img[900:1900, 760:1440] = 0
        box, body_top = detect_title_region(img, [0, 730, 1460])
        assert box is None


class TestSplitColumns:
    @pytest.mark.parametrize("n_cols,style", [
        (1, pagegen.INK), (2, pagegen.INK), (3, pagegen.GUTTER),
        (4, pagegen.INK), (6, pagegen.GUTTER),
    ])
    def test_region_count(self, n_cols, style):
        img, truth = render(n_cols, style)
        res = split_columns(img)
        assert res.n_cols == n_cols
        assert len(res.regions) == n_cols  # no title
        kinds = [k for k, _ in res.regions]
        assert kinds == ["column"] * n_cols

    def test_title_region_first(self):
        img, truth = render(4, pagegen.INK, has_title=True)
        res = split_columns(img)
        assert res.regions[0][0] == "header"
        assert len(res.regions) == 1 + truth.n_cols

    def test_tiny_image_fallback(self):
        rng = make_rng()
        img, _ = pagegen.render_tiny_page(rng)
        res = split_columns(img)
        assert len(res.regions) == 1
        _, (x0, y0, x1, y1) = res.regions[0]
        assert (x0, y0, x1, y1) == (0, 0, img.shape[1], img.shape[0])

    def test_overlap_clamped(self):
        img, truth = render(2, pagegen.INK)
        res = split_columns(img, overlap_px=20)
        (_, (x0, _, x1, _)) = res.regions[0]
        assert x0 == 0  # clamped at page edge
        assert x1 == truth.boundaries[1] + 20
