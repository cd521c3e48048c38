"""Scalar text operators: divider-noise cleanup, reflow, word-level diff.

Semantics match the reference exactly (so golden span/text equality holds):
- ``clean_divider_noise``  — reference ``tesseract_engine.py:24-65`` (T1)
- ``reflow_text``          — reference ``tesseract_engine.py:68-88``  (T2)
- ``readable_diff``        — reference ``tesseract_claude_engine.py:15-57`` (T3)

Both T1 and T3 skip their general machinery where it provably changes
nothing: ``clean_divider_noise`` runs the pipe regexes only on lines that
hold a ``|`` (both need one), and ``readable_diff`` takes difflib's
alignment from ``word_opcodes``, which skips ``SequenceMatcher`` for equal
word lists and for same-length substitutions that difflib aligns position
by position. ``tests/reference_textops.py`` keeps the general forms, and
the tests compare against them.

These are pure per-string functions; the batch-level wrappers at the bottom are
what the pipeline's ``map_batches`` stages call (one vectorized pass over the
Arrow string child array — the per-line drop logic requires Python, but the
regexes are compiled once at module import and the loop is per *span*, not per
character, so a batch of thousands of spans is a single task).
"""

from __future__ import annotations

import difflib
import re

import numpy as np
import pyarrow as pa

# Trailing pipe + up to 3 bleed chars ("text | s", "text|g"), leading mirror.
_TRAIL_PIPE = re.compile(r"\s*\|.{0,3}$")
_LEAD_PIPE = re.compile(r"^.{0,3}\|\s*")
_HYPHEN_BREAK = re.compile(r"-\n\s*")
_NEWLINES = re.compile(r"\n+")
_MULTISPACE = re.compile(r"  +")


def clean_divider_noise(text: str) -> str:
    """Strip column-divider pipe artifacts from raw OCR text.

    Per line: remove trailing ``|`` + ≤3 bleed chars, then leading mirror image,
    then standalone pipes; drop lines whose stripped remainder is 1–2 chars
    (stray garbage — dropped, not blanked, so hyphen rejoining in reflow still
    works); finally collapse runs of 2+ blank lines to one.

    The two pipe regexes and ``strip("|")`` run only on lines that hold a
    ``|``: both patterns need a literal pipe and the strip removes nothing
    without one, so skipping them elsewhere gives the same output. A dropped
    line leaves the blank-run count as it is, exactly as if the drop had
    been a separate pass before the collapse.
    """
    out: list[str] = []
    blanks = 0
    for line in text.split("\n"):
        if "|" in line:
            line = _LEAD_PIPE.sub("", _TRAIL_PIPE.sub("", line)).strip("|")
        line = line.rstrip()
        if not line:  # rstripped, so blank iff empty
            blanks += 1
            if blanks <= 1:
                out.append(line)
        elif len(line.lstrip()) > 2:
            blanks = 0
            out.append(line)
    return "\n".join(out)


def reflow_text(section_text: str) -> str:
    """One OCR section → flowing text: rejoin ``word-\\n`` breaks, collapse
    newlines to spaces, squeeze runs of spaces."""
    section_text = section_text.strip()
    if not section_text:
        return ""
    section_text = _HYPHEN_BREAK.sub("", section_text)
    section_text = _NEWLINES.sub(" ", section_text)
    section_text = _MULTISPACE.sub(" ", section_text)
    return section_text.strip()


# difflib.SequenceMatcher drops "popular" words from b once b has this many.
_AUTOJUNK_MIN = 200


def word_opcodes(bw: list[str], aw: list[str]) -> list[tuple]:
    """``difflib.SequenceMatcher(None, bw, aw).get_opcodes()``, with two
    exact shortcuts that skip the matcher.

    - Equal lists: one ``equal`` opcode (none for two empty lists).
    - Equal lengths below difflib's autojunk size, where no word at a changed
      position equals a word at an unchanged position and no old changed
      word equals a new one: ``equal`` for each unchanged run and
      ``replace`` for each run of changed positions. Every match then pairs
      two unchanged positions holding the same word, and an off-diagonal
      block has a diagonal twin of its length that the matcher's search
      (first longest block by end in ``bw``, then by ``j``) reaches first,
      so each block it picks is a whole unchanged run.

    Every other pair goes through ``SequenceMatcher``.
    """
    n = len(bw)
    if bw == aw:
        return [("equal", 0, n, 0, n)] if n else []
    if n == len(aw) and n < _AUTOJUNK_MIN:
        changed = [i for i, (a, b) in enumerate(zip(bw, aw)) if a != b]
        same = {a for a, b in zip(bw, aw) if a == b}
        old = {bw[i] for i in changed}
        new = {aw[i] for i in changed}
        if same.isdisjoint(old) and same.isdisjoint(new) \
                and old.isdisjoint(new):
            return _positional_opcodes(changed, n)
    return difflib.SequenceMatcher(None, bw, aw).get_opcodes()


def _positional_opcodes(changed: list[int], n: int) -> list[tuple]:
    """Opcodes of a same-length diff whose changed positions are ``changed``
    (ascending, non-empty): ``replace`` per maximal run, ``equal`` between."""
    ops = []
    pos = 0
    start = changed[0]
    for prev, i in zip(changed, changed[1:] + [n + 1]):
        if i == prev + 1:
            continue
        if pos < start:
            ops.append(("equal", pos, start, pos, start))
        ops.append(("replace", start, prev + 1, start, prev + 1))
        pos, start = prev + 1, i
    if pos < n:
        ops.append(("equal", pos, n, pos, n))
    return ops


def readable_diff(before: str, after: str) -> str:
    """Word-level diff with 3 words of context; ``«old» → «new»`` lines.

    The alignment is ``word_opcodes``: difflib's, computed without the
    matcher for equal word lists and for same-length substitutions that
    difflib provably aligns position by position.
    """
    bw, aw = before.split(), after.split()
    ctx = 3
    changes = []
    for op, i1, i2, j1, j2 in word_opcodes(bw, aw):
        if op == "equal":
            continue
        before_ctx = bw[max(0, i1 - ctx):i1]
        after_ctx = bw[i2:i2 + ctx]
        old = " ".join(bw[i1:i2]) if i1 < i2 else ""
        new = " ".join(aw[j1:j2]) if j1 < j2 else ""
        parts = []
        if before_ctx:
            parts.append("..." + " ".join(before_ctx))
        if op == "replace":
            parts.append(f"«{old}» → «{new}»")
        elif op == "delete":
            parts.append(f"«{old}» → (deleted)")
        elif op == "insert":
            parts.append(f"(inserted) «{new}»")
        if after_ctx:
            parts.append(" ".join(after_ctx) + "...")
        changes.append(" ".join(parts))
    if not changes:
        return "No changes detected."
    header = f"Correction changes ({len(changes)} edits):\n"
    return header + "\n".join(f"  {i + 1}. {c}" for i, c in enumerate(changes))


# --- batch-level wrappers (Arrow in / Arrow out) ----------------------------

def clean_batch(tbl: pa.Table, col: str = "text") -> pa.Table:
    """``clean_divider_noise`` over one string column of an Arrow table."""
    out = pa.array([None if v is None else clean_divider_noise(v)
                    for v in tbl[col].to_pylist()], type=pa.string())
    return tbl.set_column(tbl.column_names.index(col), col, out)


def whitespace_token_counts(texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized whitespace token count (used by text-stats operators)."""
    import pyarrow.compute as pc

    # split_pattern_regex then list_value_length is fully vectorized in Arrow.
    trimmed = pc.utf8_trim_whitespace(texts)
    parts = pc.split_pattern_regex(trimmed, r"\s+")
    n = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    n = n.astype(np.int64)
    n[empty] = 0
    return n
