"""Reference copies of the T1 and T3 text operators in their general form:
the pipe regexes on every line, and ``difflib.SequenceMatcher`` for every
word diff. ``functions.textops`` skips both where the result is provably the
same; the tests compare it with these. The same goes for the normalizer's
token walk: ``stages.correct`` splits on newlines and then spaces through
one word map, the copy here on spaces and then newlines."""

import difflib
import re

from norsk_historisk_avis_ocr_ray.stages.correct import NorwegianNormalizer

_TRAIL_PIPE = re.compile(r"\s*\|.{0,3}$")
_LEAD_PIPE = re.compile(r"^.{0,3}\|\s*")


def pipe_regex_clean_divider_noise(text: str) -> str:
    """The divider cleanup with both pipe regexes run on every line, then
    the short-line drop and the blank-run collapse as two passes."""
    cleaned = []
    for line in text.split("\n"):
        line = _TRAIL_PIPE.sub("", line)
        line = _LEAD_PIPE.sub("", line)
        line = line.strip("|").rstrip()
        stripped = line.strip()
        if 0 < len(stripped) <= 2:
            continue
        cleaned.append(line)

    out: list[str] = []
    blanks = 0
    for line in cleaned:
        if line.strip() == "":
            blanks += 1
            if blanks <= 1:
                out.append(line)
        else:
            blanks = 0
            out.append(line)
    return "\n".join(out)


def difflib_readable_diff(before: str, after: str) -> str:
    """The word diff as ``SequenceMatcher`` gives it for every pair."""
    bw, aw = before.split(), after.split()
    sm = difflib.SequenceMatcher(None, bw, aw)
    ctx = 3
    changes = []
    for op, i1, i2, j1, j2 in sm.get_opcodes():
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


class SplitTwiceNormalizer(NorwegianNormalizer):
    """The dictionary normalizer's token walk as a split on spaces, then on
    newlines inside each space-separated part."""

    def correct(self, text):
        if not text:
            return text
        parts = text.split(" ")
        return " ".join(
            "\n".join(self.correct_word(w) if w else w for w in p.split("\n"))
            if "\n" in p else (self.correct_word(p) if p else p)
            for p in parts
        )
