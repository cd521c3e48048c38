"""Per-doc golden checker for extraction output.

A doc passes when the output holds exactly one row for it, that row carries
``n_errors == 0``, and its span sequence ``(kind, text, media_ref)`` ordered by
offset, its ``combined`` and its ``transcribed`` equal the generator's golden
row. Output rows whose doc_id is not in the golden fail too.
"""

from __future__ import annotations

from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq


def span_key(spans) -> list[tuple]:
    return [(s["kind"], s["text"], s["media_ref"])
            for s in sorted(spans or [], key=lambda s: s["offset"])]


def check(output: pa.Table, golden: pa.Table) -> dict:
    """Compare ``output`` with ``golden``; returns counts and failed doc_ids.

    ``attempted`` is the number of distinct golden docs; ``failed`` lists every
    golden doc that is missing, duplicated, mismatched or carries errors, then
    every unexpected doc_id in the output.
    """
    rows = output.select(["doc_id", "spans", "combined", "transcribed",
                          "n_errors"]).to_pylist()
    seen = Counter(r["doc_id"] for r in rows)
    got = {r["doc_id"]: r for r in rows}
    want = {g["doc_id"]: g for g in golden.to_pylist()}
    reasons: Counter = Counter()
    failed: list[str] = []
    for doc_id, g in want.items():
        r = got.get(doc_id)
        if r is None:
            reason = "missing"
        elif seen[doc_id] > 1:
            reason = "duplicated"
        elif r["n_errors"]:
            reason = "errors"
        elif span_key(r["spans"]) != span_key(g["spans"]):
            reason = "spans"
        elif r["combined"] != g["combined"]:
            reason = "combined"
        elif r["transcribed"] != g["transcribed"]:
            reason = "transcribed"
        else:
            continue
        reasons[reason] += 1
        failed.append(doc_id)
    for doc_id in seen:
        if doc_id not in want:
            reasons["unexpected"] += 1
            failed.append(doc_id)
    return {"attempted": len(want), "failed": failed, "reasons": dict(reasons)}



def check_files(files: list[str], golden: pa.Table,
                shards_redone: int = 0) -> dict:
    """``check`` on one pass's output parquet files, with the failed docs
    counted. A redone shard breaks the resume contract: the whole pass fails."""
    res = check(pa.concat_tables([pq.read_table(f) for f in files]), golden)
    res["failed"] = len(res["failed"])
    if shards_redone:
        res["failed"] = res["attempted"]
        res["reasons"]["shards_redone"] = shards_redone
    return res


def merge(checks: list[dict]) -> dict:
    """Sum ``check_files`` results over passes."""
    reasons: Counter = Counter()
    for c in checks:
        reasons.update(c["reasons"])
    return {"attempted": sum(c["attempted"] for c in checks),
            "failed": sum(c["failed"] for c in checks),
            "reasons": dict(reasons)}
