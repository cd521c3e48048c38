"""Deterministic synthetic corpus: documents + pages + golden outputs.

Builds the authoritative correctness corpus of FIXTURES.md: a ``documents``
table ``(doc_id, spans)`` of interleaved text + media docs, a ``pages`` media
side table, and the ``golden`` expected-output table against which the
pipeline's span sequences are checked for per-row equality on
``(kind, text, media_ref, order)``.

Doc mix (FIXTURES.md §1): 60% single-media, 25% interleaved text+media (2–8
spans), 10% text-only, 5% edge cases (empty span list, tiny image, duplicate
doc_id, shuffled physical span order with correct offsets).

Raw texts carry the OCR artifacts the cleanup operators must handle
(pipe bleed, hyphenated line breaks, 1–2-char garbage lines, blank-line runs —
``tesseract_engine.py:24-88`` semantics) plus seeded OCR confusions
(rn/li/cl/ø/æ) for the correction stage.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.textops import clean_divider_noise, reflow_text
from ..schema import DOCUMENTS_SCHEMA, PAGES_SCHEMA, SPAN_STRUCT
from ..sources.codec import RAW_ZLIB, encode_image
from ..stages.correct import NorwegianNormalizer
from . import pagegen

# Content vocabulary — every word is in stages.correct.LEXICON so the
# normalizer never touches clean text.
VOCAB = (
    "avisen byen landet folket kongen regjeringen kommunen kirken skolen "
    "fisket havet fjorden fjellet skogen gården bonden arbeidet handelen "
    "mannen kvinnen barnet familien huset veien gaten torget markedet prisen "
    "vinteren sommeren høsten våren dagen natten morgenen kvelden uken året "
    "festen møtet talen saken retten loven freden seieren laget kampen båten "
    "skipet toget nyheten meldingen brevet ordet boken bladet siden artikkelen "
    "kommer går står ligger holder finner viser sier mener tror vet bygger "
    "selger kjøper betaler koster stiger faller øker begynner slutter vant "
    "reiste besøkte åpnet valgte vedtok meldte skrev leste fortalte hørte "
    "og i det som en av på til er for med at han hun de ikke var fra om men "
    "store små norske første siste gammel ung god ny"
).split()

# (corrupted_form, clean_form): corrupted ∉ lexicon, clean ∈ lexicon; the
# corruption is the OCR-error direction of stages.correct.CONFUSION_PAIRS.
CORRUPTIONS = [
    ("rnannen", "mannen"),
    ("fodt", "født"),
    ("vaere", "være"),
    ("clagen", "dagen"),
    ("liusene", "husene"),
    ("rnøtet", "møtet"),
    ("bokens", None),  # stays uncorrected: no confusion fix maps into the lexicon
]


def _sentence(rng: np.random.Generator, n_words: int) -> list[str]:
    idx = rng.integers(0, len(VOCAB), size=n_words)
    return [VOCAB[i] for i in idx]


def make_raw_text(rng: np.random.Generator, max_bytes: int,
                  n_lines_hint: int = 4) -> str:
    """Raw OCR-ish text with seeded noise, capped at ``max_bytes`` UTF-8."""
    lines: list[str] = []
    n_lines = int(rng.integers(2, n_lines_hint + 2))
    for li in range(n_lines):
        words = _sentence(rng, int(rng.integers(3, 7)))
        r = rng.random()
        if r < 0.25 and len(words) >= 2:
            # hyphenated line break: word split across this and the next line
            w = words[-1]
            if len(w) >= 4:
                cut = len(w) // 2
                words[-1] = w[:cut] + "-"
                lines.append(" ".join(words))
                lines.append(w[cut:] + " " + " ".join(_sentence(rng, 2)))
                continue
        if r < 0.40:
            lines.append(" ".join(words) + " | " + "s")  # trailing pipe bleed
        elif r < 0.50:
            lines.append(".| " + " ".join(words))        # leading pipe bleed
        elif r < 0.58:
            lines.append(" ".join(words))
            lines.append("a)")                            # 1-2 char garbage line
        elif r < 0.66:
            lines.append(" ".join(words))
            lines.append("")
            lines.append("")                              # blank-line run
        else:
            lines.append(" ".join(words))
    if rng.random() < 0.35:
        corrupted, _ = CORRUPTIONS[int(rng.integers(0, len(CORRUPTIONS)))]
        lines.append(corrupted + " " + " ".join(_sentence(rng, 2)))
    text = "\n".join(lines)
    while len(text.encode("utf-8")) > max_bytes:
        lines = lines[:-1]
        text = "\n".join(lines)
    return text


def _span(kind: str, text: str, media_ref: str, offset: int) -> dict:
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


class CorpusBuilder:
    def __init__(self, seed: int = 42, prefix: str = ""):
        self.rng = np.random.default_rng(seed)
        self.prefix = prefix  # doc_id/media_ref namespace (parallel sharding)
        self.doc_rows: list[dict] = []
        self.page_rows: list[dict] = []
        self.golden_rows: list[dict] = []
        self.layout_rows: list[dict] = []
        self.normalizer = NorwegianNormalizer()
        self._page_seq = 0

    # -- pages ---------------------------------------------------------------

    def _new_page(self, tiny: bool = False) -> tuple[str, pagegen.PageTruth]:
        rng = self.rng
        ref = f"{self.prefix}page-{self._page_seq:06d}"
        self._page_seq += 1
        if tiny:
            img, truth = pagegen.render_tiny_page(rng)
        else:
            n_cols = int(rng.choice([1, 2, 2, 3, 3, 4, 6]))  # skewed histogram
            style = pagegen.GUTTER if (n_cols >= 2 and rng.random() < 0.4) else pagegen.INK
            has_title = bool(n_cols >= 2 and rng.random() < 0.5)
            col_budget = pagegen.COL_WIDTH - 2 * barcode_budget_pad()
            col_texts = [make_raw_text(rng, col_budget) for _ in range(n_cols)]
            title_text = ""
            if has_title:
                title_width = 2 * pagegen.COL_WIDTH  # group spans ≥2 columns
                title_text = " ".join(_sentence(rng, int(rng.integers(2, 5))))
                title_text = title_text[: title_width - 2 * barcode_budget_pad()]
            img, truth = pagegen.render_page(
                rng, n_cols, style, has_title, col_texts, title_text)
        self.page_rows.append({
            "media_ref": ref, "image": encode_image(img),
            "width": truth.width, "height": truth.height, "codec": RAW_ZLIB,
            "n_cols": truth.n_cols, "has_title": truth.has_title, "dpi": 300,
        })
        self.layout_rows.append({
            "media_ref": ref,
            "boundaries": truth.boundaries,
            "has_title": truth.has_title,
            "title_cols": list(truth.title_cols),
            "n_cols": truth.n_cols,
            "style": truth.style,
        })
        return ref, truth

    # -- documents -----------------------------------------------------------

    def add_doc(self, doc_id: str, kind: str) -> None:
        rng = self.rng
        spans: list[dict] = []
        golden: list[tuple[str, str, str]] = []  # (kind, cleaned_text, media_ref)

        def add_media(offset: int, tiny: bool = False):
            ref, truth = self._new_page(tiny=tiny)
            spans.append(_span("media", "", ref, offset))
            for raw in truth.region_texts():
                golden.append(("text", clean_divider_noise(raw), ref))

        def add_text(offset: int):
            raw = make_raw_text(rng, 500)
            spans.append(_span("text", raw, "", offset))
            golden.append(("text", clean_divider_noise(raw), ""))

        if kind == "media":
            add_media(0)
        elif kind == "interleaved":
            n = int(rng.integers(2, 9))
            for off in range(n):
                if rng.random() < 0.5:
                    add_media(off)
                else:
                    add_text(off)
        elif kind == "text":
            for off in range(int(rng.integers(1, 4))):
                add_text(off)
        elif kind == "empty":
            pass
        elif kind == "tiny":
            add_media(0, tiny=True)
        elif kind == "shuffled":
            for off in range(3):
                add_text(off)
            order = rng.permutation(len(spans))
            spans = [spans[i] for i in order]  # physical order ≠ offset order

        self.doc_rows.append({"doc_id": doc_id, "spans": spans})

        texts = [g[1] for g in golden]
        combined = "\n\n".join(texts)
        reflowed = [reflow_text(t) for t in texts]
        transcribed_raw = "\n\n".join(t for t in reflowed if t)
        transcribed = self.normalizer.correct(transcribed_raw)
        self.golden_rows.append({
            "doc_id": doc_id,
            "spans": [_span(k, t, r, i) for i, (k, t, r) in enumerate(golden)],
            "combined": combined,
            "transcribed": transcribed,
        })

    def build(self, n_docs: int) -> None:
        kinds = []
        for i in range(n_docs):
            r = (i * 9973 + 7) % 100  # deterministic mix independent of rng state
            if r < 60:
                kinds.append("media")
            elif r < 85:
                kinds.append("interleaved")
            elif r < 95:
                kinds.append("text")
            elif r < 97:
                kinds.append("empty")
            elif r < 98:
                kinds.append("tiny")
            elif r < 99:
                kinds.append("shuffled")
            else:
                kinds.append("dup")
        for i, kind in enumerate(kinds):
            doc_id = f"{self.prefix}doc-{i:06d}"
            if kind == "dup":
                self.add_doc(doc_id, "media")
                # exact duplicate row (ingest dedup case): same doc_id + spans
                self.doc_rows.append(dict(self.doc_rows[-1]))
            else:
                self.add_doc(doc_id, kind)

    # -- tables ---------------------------------------------------------------

    def documents_table(self) -> pa.Table:
        return pa.Table.from_pylist(self.doc_rows, schema=DOCUMENTS_SCHEMA)

    def pages_table(self) -> pa.Table:
        return pa.Table.from_pylist(self.page_rows, schema=PAGES_SCHEMA)

    def golden_table(self) -> pa.Table:
        schema = pa.schema([
            pa.field("doc_id", pa.string()),
            pa.field("spans", pa.list_(SPAN_STRUCT)),
            pa.field("combined", pa.string()),
            pa.field("transcribed", pa.string()),
        ])
        return pa.Table.from_pylist(self.golden_rows, schema=schema)

    def layout_table(self) -> pa.Table:
        return pa.Table.from_pylist(self.layout_rows)


def barcode_budget_pad() -> int:
    """Bytes reserved per region for the barcode header + margins."""
    return 60


def make_corpus(n_docs: int, seed: int = 42) -> dict[str, pa.Table]:
    b = CorpusBuilder(seed=seed)
    b.build(n_docs)
    return {
        "documents": b.documents_table(),
        "pages": b.pages_table(),
        "golden": b.golden_table(),
        "golden_layout": b.layout_table(),
    }


def write_corpus_parallel(out_dir: str, n_docs: int, seed: int = 42,
                          n_shards: int = 32) -> None:
    """Generate and write the corpus with Ray tasks, one shard per task
    (deterministic: shard seed = seed + shard index, ids namespaced by shard).
    Requires an initialized Ray session. Layout: documents/, pages/, golden/
    directories of per-shard parquet files + a _SUCCESS marker."""
    import ray

    @ray.remote(num_cpus=1)
    def build_shard(shard: int, shard_docs: int) -> int:
        b = CorpusBuilder(seed=seed + shard, prefix=f"s{shard:03d}-")
        b.build(shard_docs)
        for name, tbl in (("documents", b.documents_table()),
                          ("pages", b.pages_table()),
                          ("golden", b.golden_table())):
            os.makedirs(os.path.join(out_dir, name), exist_ok=True)
            _write(tbl, os.path.join(out_dir, name, f"part-{shard:04d}.parquet"))
        return shard_docs

    os.makedirs(out_dir, exist_ok=True)
    per = (n_docs + n_shards - 1) // n_shards
    sizes = [min(per, n_docs - i * per) for i in range(n_shards)]
    sizes = [s for s in sizes if s > 0]
    ray.get([build_shard.remote(i, s) for i, s in enumerate(sizes)])
    with open(os.path.join(out_dir, "_SUCCESS"), "w") as f:
        f.write(f"{n_docs} {seed}\n")


def write_corpus(out_dir: str, n_docs: int, seed: int = 42,
                 n_doc_files: int = 4) -> dict[str, pa.Table]:
    """Write the corpus as parquet; documents split into ``n_doc_files`` shards
    (the resume/manifest unit)."""
    tables = make_corpus(n_docs, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    docs = tables["documents"]
    docs_dir = os.path.join(out_dir, "documents")
    os.makedirs(docs_dir, exist_ok=True)
    n = docs.num_rows
    per = max(1, (n + n_doc_files - 1) // n_doc_files)
    for i in range(0, n, per):
        _write(docs.slice(i, per),
               os.path.join(docs_dir, f"part-{i // per:04d}.parquet"))
    for name in ("pages", "golden", "golden_layout"):
        _write(tables[name], os.path.join(out_dir, f"{name}.parquet"))
    return tables


def _write(tbl: pa.Table, path: str) -> None:
    """``pq.write_table`` with a dictionary on every column but the page
    payloads: each ``image`` is unique, so a dictionary never pays for it,
    and a reader of a column that fell back from it holds more."""
    pq.write_table(tbl, path, use_dictionary=[c for c in tbl.column_names
                                              if c != "image"])
