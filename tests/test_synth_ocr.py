"""Barcode codec, mock OCR over layout crops, corrector, and corpus sanity."""

import numpy as np
import pyarrow as pa

from norsk_historisk_avis_ocr_ray.sources.codec import decode_image, encode_image
from norsk_historisk_avis_ocr_ray.stages.correct import (
    CONFUSION_PAIRS,
    LEXICON,
    NorwegianNormalizer,
)
from norsk_historisk_avis_ocr_ray.stages.layout import split_columns
from norsk_historisk_avis_ocr_ray.stages.ocr import MockBarcodeOcr
from norsk_historisk_avis_ocr_ray.synth import barcode, corpus, pagegen


def test_codec_roundtrip():
    img = (np.arange(200 * 100) % 251).astype(np.uint8).reshape(200, 100)
    buf = encode_image(img)
    out = decode_image(buf, 100, 200)
    assert np.array_equal(img, out)


def test_barcode_roundtrip():
    img = np.full((50, 800), 255, np.uint8)
    barcode.write_barcode(img, 46, 40, "blåbær og fløte\nlinje to")
    assert barcode.read_barcode(img) == "blåbær og fløte\nlinje to"


def test_barcode_missing_is_empty():
    img = np.full((50, 800), 255, np.uint8)
    assert barcode.read_barcode(img) == ""


def test_mock_ocr_recovers_region_texts():
    """Layout crops + mock OCR recover exactly the rendered texts, in order."""
    rng = np.random.default_rng(3)
    texts = [f"kolonne {i} inneholder ordet prisen" for i in range(3)]
    img, truth = pagegen.render_page(rng, 3, pagegen.INK, True, texts,
                                     "stor overskrift her")
    res = split_columns(img)
    engine = MockBarcodeOcr()
    got = [engine.ocr_region(img[y0:y1, x0:x1]) for _, (x0, y0, x1, y1) in res.regions]
    assert got == truth.region_texts()


def test_mock_ocr_gutter_page():
    rng = np.random.default_rng(5)
    texts = [f"tekst nummer {i}" for i in range(4)]
    img, truth = pagegen.render_page(rng, 4, pagegen.GUTTER, False, texts)
    res = split_columns(img)
    engine = MockBarcodeOcr()
    got = [engine.ocr_region(img[y0:y1, x0:x1]) for _, (x0, y0, x1, y1) in res.regions]
    assert got == texts


class TestNormalizer:
    def test_confusion_fixes(self):
        n = NorwegianNormalizer()
        assert n.correct("rnannen kom") == "mannen kom"
        assert n.correct("han ble fodt her") == "han ble født her"
        assert n.correct("vaere med") == "være med"
        assert n.correct("clagen etter") == "dagen etter"
        assert n.correct("liusene brant") == "husene brant"

    def test_lexicon_words_untouched(self):
        n = NorwegianNormalizer()
        assert n.correct("mannen og kvinnen") == "mannen og kvinnen"

    def test_unknown_word_left_as_is(self):
        n = NorwegianNormalizer()
        assert n.correct("bokens xyzzy") == "bokens xyzzy"

    def test_never_deletes_words(self):
        n = NorwegianNormalizer()
        text = "fodt rnannen vaere og det xyz"
        assert len(n.correct(text).split()) == len(text.split())

    def test_punctuation_preserved(self):
        n = NorwegianNormalizer()
        assert n.correct("clagen, etter.") == "dagen, etter."

    def test_newlines_preserved(self):
        n = NorwegianNormalizer()
        assert n.correct("fodt her\nclagen etter") == "født her\ndagen etter"


def test_vocab_subset_of_lexicon():
    missing = [w for w in corpus.VOCAB if w.lower() not in LEXICON]
    assert missing == [], f"VOCAB words missing from LEXICON: {missing}"


def test_corruptions_behave():
    n = NorwegianNormalizer()
    for corrupted, fixed in corpus.CORRUPTIONS:
        assert corrupted.lower() not in LEXICON
        got = n.correct_word(corrupted)
        if fixed is None:
            assert got == corrupted
        else:
            assert got == fixed


def test_corpus_shapes():
    tables = corpus.make_corpus(40, seed=11)
    docs, pages, golden = tables["documents"], tables["pages"], tables["golden"]
    # one golden row per unique doc_id; documents may contain duplicate rows
    doc_ids = docs["doc_id"].to_pylist()
    assert set(doc_ids) == set(golden["doc_id"].to_pylist())
    assert len(set(doc_ids)) == 40
    # every media_ref used by spans exists in pages
    refs = set()
    for spans in docs["spans"].to_pylist():
        for s in spans or []:
            if s["kind"] == "media":
                refs.add(s["media_ref"])
    assert refs <= set(pages["media_ref"].to_pylist())
    # spans golden offsets are sequential
    for spans in golden["spans"].to_pylist():
        assert [s["offset"] for s in spans] == list(range(len(spans)))


def test_written_pages_have_no_image_dictionary(tmp_path):
    # every image is unique: its column chunk is written without a
    # dictionary page, the other page columns keep theirs, and the pages
    # read back unchanged
    import pyarrow.parquet as pq

    tables = corpus.write_corpus(str(tmp_path), 4, seed=7, n_doc_files=1)
    f = pq.ParquetFile(str(tmp_path / "pages.parquet"))
    rg = f.metadata.row_group(0)
    chunks = {rg.column(i).path_in_schema: rg.column(i)
              for i in range(rg.num_columns)}
    assert not chunks["image"].has_dictionary_page
    assert chunks["media_ref"].has_dictionary_page
    assert f.read().equals(tables["pages"])
