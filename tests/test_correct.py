"""The corrector stage's audit columns (``corrected``, ``n_edits``, ``diff``).

No benchmark golden or oracle hash reads these columns, so they are pinned
here end to end: ``process_shard`` over the golden corpus and a text-only
corpus, row for row against a reference computed with difflib directly.
The normalizer itself is compared with its split-twice reference copy on
random texts."""

import random

import pyarrow as pa
import pytest
from reference_textops import SplitTwiceNormalizer, difflib_readable_diff

from norsk_historisk_avis_ocr_ray.pipelines.sharded import process_shard
from norsk_historisk_avis_ocr_ray.stages.correct import (
    CorrectorStage,
    NorwegianNormalizer,
)
from norsk_historisk_avis_ocr_ray.stages.ocr import MockBarcodeOcr
from norsk_historisk_avis_ocr_ray.synth.corpus import CorpusBuilder, make_corpus


def text_only_shard(seed: int, shard: int, n_docs: int) -> pa.Table:
    """A text-only shard with the benchmark's kind mix: text, shuffled,
    empty and duplicated rows."""
    b = CorpusBuilder(seed=seed * 1000 + shard, prefix=f"s{shard:03d}-")
    for i in range(n_docs):
        r = (i * 9973 + 7) % 100
        kind = ("text" if r < 80 else "shuffled" if r < 93
                else "empty" if r < 98 else "dup")
        if kind == "dup":
            b.add_doc(f"{b.prefix}doc-{i:06d}", "text")
            b.doc_rows.append(dict(b.doc_rows[-1]))
        else:
            b.add_doc(f"{b.prefix}doc-{i:06d}", kind)
    return b.documents_table()


def golden_shard():
    corpus = make_corpus(60, seed=42)
    return corpus["documents"], corpus["pages"]


@pytest.mark.parametrize("shard", [
    pytest.param(golden_shard, id="golden"),
    pytest.param(lambda: (text_only_shard(1, 0, 128), None), id="text-only-0"),
    pytest.param(lambda: (text_only_shard(1, 1, 128), None), id="text-only-1"),
])
def test_audit_columns_match_difflib_reference(shard):
    docs, pages = shard()
    engine = MockBarcodeOcr()
    raw = process_shard([(docs, pages)], engine, correction=False)
    out = process_shard([(docs, pages)], engine)
    assert raw["doc_id"].to_pylist() == out["doc_id"].to_pylist()
    normalizer = NorwegianNormalizer()
    n_changed = 0
    for doc_id, text, row in zip(raw["doc_id"].to_pylist(),
                                 raw["transcribed"].to_pylist(),
                                 out.to_pylist()):
        fixed = normalizer.correct(text) if text else text
        changed = fixed != text
        n_changed += changed
        edits = (sum(a != b for a, b in zip(text.split(), fixed.split()))
                 if changed else 0)
        assert row["transcribed"] == fixed, doc_id
        assert row["corrected"] == changed, doc_id
        assert row["n_edits"] == edits, doc_id
        assert row["diff"] == difflib_readable_diff(text, fixed), doc_id
    assert 0 < n_changed < out.num_rows


class PrependWord:
    def correct(self, text):
        return "NY " + text


class DropFirstWord:
    def correct(self, text):
        return text.split(" ", 1)[1]


@pytest.mark.parametrize("factory", [PrependWord, DropFirstWord])
def test_n_edits_counts_inserted_and_deleted_words_once(factory):
    batch = pa.table({"doc_id": ["d0"],
                      "transcribed_raw": ["en to tre fire fem"]})
    out = CorrectorStage(corrector_factory=factory)(batch).to_pylist()[0]
    assert out["corrected"]
    assert out["n_edits"] == 1
    assert out["diff"].startswith("Correction changes (1 edits)")


# words the lexicon fixes, words it knows, words it leaves alone
FIXABLE = ["fodt", "rnannen", "liuset", "clagen", "kvinnen", "bladet", "aer"]
KNOWN = ["og", "i", "det", "avisen", "Kongen", "Stortinget"]
OTHER = ["xyz", "Oslo", "1952", "-", "«", "rn", "o", "ae"]
SEPARATORS = [" ", "  ", "\t", "\n", "\n\n", " \n", "\n ", " \t "]


def random_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 12)):
        word = rng.choice(rng.choice([FIXABLE, KNOWN, OTHER]))
        if rng.random() < 0.25:
            word = word.upper()
        if rng.random() < 0.3:
            word = rng.choice(["«", "(", '"', ""]) + word + rng.choice(
                [".", ",", "»", ")", "!", ""])
        parts.append(word)
        parts.append(rng.choice(SEPARATORS))
    if parts and rng.random() < 0.5:
        parts.pop()
    if rng.random() < 0.2:
        parts.insert(0, rng.choice(SEPARATORS))
    return "".join(parts)


def test_normalizer_equals_split_twice_reference():
    rng = random.Random(5)
    fast, ref = NorwegianNormalizer(), SplitTwiceNormalizer()
    texts = ["", " ", "\n", "\n\n", "a  b", "fodt\tfodt", "fodt\n\nfodt "]
    texts += [random_text(rng) for _ in range(3000)]
    n_changed = 0
    for text in texts:
        want = ref.correct(text)
        assert fast.correct(text) == want, repr(text)
        n_changed += want != text
    assert 0 < n_changed < len(texts)
