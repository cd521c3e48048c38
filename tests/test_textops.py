"""Unit tests for T1/T2/T3 text operators (semantics of
tesseract_engine.py:24-88 and tesseract_claude_engine.py:15-57)."""

import difflib

import pyarrow as pa

from norsk_historisk_avis_ocr_ray.functions import textops
from norsk_historisk_avis_ocr_ray.functions.textops import (
    clean_batch,
    clean_divider_noise,
    readable_diff,
    reflow_text,
    whitespace_token_counts,
    word_opcodes,
)


class TestCleanDividerNoise:
    def test_trailing_pipe_with_bleed(self):
        assert clean_divider_noise("hadde | k") == "hadde"
        assert clean_divider_noise("text|g") == "text"

    def test_leading_pipe_with_bleed(self):
        assert clean_divider_noise("-| text") == "text"
        assert clean_divider_noise('"|sjonene') == "sjonene"

    def test_standalone_pipes(self):
        assert clean_divider_noise("|midt|") == "midt"

    def test_short_garbage_lines_dropped(self):
        assert clean_divider_noise("en linje\na)\nneste linje") == "en linje\nneste linje"

    def test_short_lines_dropped_not_blanked(self):
        # dropping (not blanking) keeps hyphen-rejoin possible in reflow
        out = clean_divider_noise("vin-\nx\nteren")
        assert out == "vin-\nteren"
        assert reflow_text(out) == "vinteren"

    def test_blank_run_collapse(self):
        assert clean_divider_noise("a linje\n\n\n\nb linje") == "a linje\n\nb linje"

    def test_empty(self):
        assert clean_divider_noise("") == ""

    def test_three_char_line_kept(self):
        assert clean_divider_noise("abc") == "abc"


class TestReflow:
    def test_hyphen_rejoin(self):
        assert reflow_text("vin-\nteren kom") == "vinteren kom"

    def test_hyphen_rejoin_with_indent(self):
        assert reflow_text("vin-\n   teren") == "vinteren"

    def test_newlines_to_spaces(self):
        assert reflow_text("en\nto\n\ntre") == "en to tre"

    def test_multispace_collapse(self):
        assert reflow_text("en  to   tre") == "en to tre"

    def test_empty(self):
        assert reflow_text("   \n  ") == ""


class TestReadableDiff:
    def test_no_changes(self):
        assert readable_diff("a b c", "a b c") == "No changes detected."

    def test_replace(self):
        out = readable_diff("en fodt mann", "en født mann")
        assert "«fodt» → «født»" in out
        assert "1 edits" in out

    def test_insert_delete(self):
        assert "(deleted)" in readable_diff("a b c", "a c")
        assert "(inserted)" in readable_diff("a c", "a b c")


def test_word_opcodes_calls_difflib_only_off_the_positional_case(monkeypatch):
    calls = []
    real = difflib.SequenceMatcher

    def matcher(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(textops.difflib, "SequenceMatcher", matcher)
    assert word_opcodes([], []) == []
    assert word_opcodes(["a", "b"], ["a", "b"]) == [("equal", 0, 2, 0, 2)]
    assert word_opcodes("x a b c y d".split(), "X a b c Y d".split()) == [
        ("replace", 0, 1, 0, 1), ("equal", 1, 4, 1, 4),
        ("replace", 4, 5, 4, 5), ("equal", 5, 6, 5, 6)]
    assert calls == []
    positional = ["w%d" % i for i in range(199)]
    word_opcodes(positional, ["ny"] + positional[1:])
    assert calls == []
    # unequal lengths; a changed word that is also unchanged elsewhere; an old
    # changed word that is also a new one; 200 words, where autojunk applies
    for before, after in [("a b c", "a c"), ("A B q A B C", "A B C A B C"),
                          ("p q r", "q p r")]:
        word_opcodes(before.split(), after.split())
    word_opcodes(positional + ["z"], ["ny"] + positional[1:] + ["z"])
    assert len(calls) == 4


def test_clean_batch_arrow():
    tbl = pa.table({"text": ["hadde | k", None, "-| tekst her"]})
    out = clean_batch(tbl)
    assert out["text"].to_pylist() == ["hadde", None, "tekst her"]


def test_whitespace_token_counts():
    arr = pa.chunked_array([pa.array(["en to tre", "  ", "", "ett"])])
    assert list(whitespace_token_counts(arr)) == [3, 0, 0, 1]
