"""Skip-gated integration test for the real Tesseract engine (M1).

In this container the binary is absent, so the live test SKIPs with the
missing-dependency list (see docs/TESSERACT.md); the dependency-resolution
contract itself (reference ``tesseract_engine.py:100-112`` behavior) is
tested unconditionally.
"""

import numpy as np
import pytest

from norsk_historisk_avis_ocr_ray.stages.ocr import TesseractOcr, get_engine

MISSING = TesseractOcr.check_dependencies()


def test_check_dependencies_contract():
    # returns a (possibly empty) list of human-readable missing deps
    assert isinstance(MISSING, list)
    assert all(isinstance(m, str) and m for m in MISSING)


def test_load_fails_fast_with_shopping_list():
    if not MISSING:
        pytest.skip("tesseract present — fail-fast path not exercisable")
    eng = TesseractOcr()
    with pytest.raises(NotImplementedError) as ei:
        eng.load()
    # every missing dep is named in the error (fail fast at actor
    # construction with the full list, not a bare ImportError mid-batch)
    for m in MISSING:
        assert m in str(ei.value)


def test_registered_in_engine_registry():
    assert get_engine("tesseract")().name == "tesseract"


@pytest.mark.skipif(bool(MISSING),
                    reason=f"tesseract unavailable: {'; '.join(MISSING)}")
def test_live_ocr_region_smoke():
    # Live path (runs only where the binary exists): white page with no
    # glyphs → empty-ish string; proves binary resolution + call plumbing.
    eng = TesseractOcr(lang="eng")
    eng.load()
    blank = np.full((64, 256), 255, np.uint8)
    out = eng.ocr_region(blank)
    assert isinstance(out, str)


@pytest.mark.skipif(bool(MISSING),
                    reason=f"tesseract unavailable: {'; '.join(MISSING)}")
def test_live_extract_pipeline(tmp_path, ray_session):
    # Full task pipeline with the real engine over a tiny synthetic
    # corpus — identical plumbing to the MockBarcodeOcr golden tests.
    import ray
    from norsk_historisk_avis_ocr_ray.pipelines.extract import extract
    from norsk_historisk_avis_ocr_ray.synth.corpus import make_corpus

    tables = make_corpus(4, seed=7)
    docs = ray.data.from_arrow(tables["documents"])
    out = extract(docs, tables["pages"],
                  engine_factory=lambda: TesseractOcr(lang="eng"))
    assert out.count() == 4
