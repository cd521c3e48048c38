"""Resumable batch runner: shard-local extraction + manifest commit.

``run_resumable`` is the job entry a cluster driver (``ray job submit``)
would call: it anti-joins the input shard list against the manifest's
committed set, processes only pending shards (one Ray task each, elastic),
writes each shard's output parquet atomically, and commits a manifest line
with the shard's lineage record. Killing the job at any point and re-running
resumes exactly where it left off; finished shards are never reprocessed and
never double-written.
"""

from __future__ import annotations

import glob
import os
import time
from typing import Any, Callable

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..functions.scale import cluster_cpus
from ..stages.ocr import MockBarcodeOcr
from ..state.manifest import Manifest
from .sharded import cached_engine, list_shards, load_shard, process_shard


@ray.remote(num_cpus=1)
def _run_shard(shard: dict, out_dir: str, correction: bool,
               emit_diff: bool, engine_factory: Callable[[], Any]) -> dict:
    t0 = time.time()
    engine = cached_engine(engine_factory)  # once per worker process
    usage0 = dict(getattr(engine, "usage", None) or {})  # cross-shard baseline
    docs, pages = load_shard(shard)
    out = process_shard([(docs, pages)], engine, correction=correction,
                        emit_diff=emit_diff)

    final = os.path.join(out_dir, f"{shard['shard']}.parquet")
    # a worker killed mid-write (a forced cancel, the OOM killer) leaves its
    # temp file behind; nothing else ever removes it
    for stale in glob.glob(glob.escape(final) + ".tmp-*"):
        os.remove(stale)
    tmp = final + f".tmp-{os.getpid()}"
    pq.write_table(out, tmp)
    os.replace(tmp, final)  # atomic: output durable before manifest commit

    n_spans = int(pa.compute.sum(
        pa.compute.list_value_length(out["spans"])).as_py() or 0)
    lineage = {
        "shard": shard["shard"],
        "docs_in": docs.num_rows,
        "pages_in": 0 if pages is None else pages.num_rows,
        "docs_out": out.num_rows,
        "spans_out": n_spans,
        "errors": int(pa.compute.sum(out["n_errors"]).as_py() or 0),
        "wall_s": round(time.time() - t0, 3),
        "output": final,
    }
    # A2 token counters: LLM engines expose a usage dict; make the totals
    # durable per-shard lineage (the reference printed them to the console,
    # claude_vision_engine.py:353-356).
    usage = getattr(engine, "usage", None)
    if isinstance(usage, dict):
        # engine is cached across shards in this worker: bill the delta
        for col, key in (("tokens_in", "input_tokens"),
                         ("tokens_out", "output_tokens"),
                         ("api_calls", "api_calls"),
                         ("api_retries", "retries")):
            lineage[col] = int(usage.get(key, 0)) - int(usage0.get(key, 0))
    return lineage


def run_resumable(
    corpus_dir: str,
    out_dir: str,
    *,
    engine_factory: Callable[[], Any] = MockBarcodeOcr,
    correction: bool = True,
    emit_diff: bool = True,
    fail_after: int | None = None,  # test hook: stop after N commits
) -> dict:
    """Process pending shards; returns run summary. Safe to re-run."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    # list_shards' order, the largest pages file first: the heaviest
    # shards start first and the last wave holds small ones
    shards = {s["shard"]: s for s in list_shards(corpus_dir)}
    pending = manifest.pending(list(shards))

    done = 0
    in_flight: dict[Any, str] = {}
    it = iter(pending)
    # Sized from the session's total CPUs, not the free ones: a busy session
    # must queue shards, not submit none. Read before the first ``.remote()``,
    # which is what starts Ray when the caller has not.
    limit = cluster_cpus()

    def submit_next():
        name = next(it, None)
        if name is None:
            return False
        ref = _run_shard.remote(shards[name], out_dir, correction, emit_diff,
                                engine_factory)
        in_flight[ref] = name
        return True

    for _ in range(limit):
        if not submit_next():
            break
    while in_flight:
        ready, _ = ray.wait(list(in_flight), num_returns=1)
        ref = ready[0]
        in_flight.pop(ref)
        lineage = ray.get(ref)
        manifest.commit(lineage["shard"], lineage)
        done += 1
        if fail_after is not None and done >= fail_after:
            # simulate a crash: abandon remaining work without committing
            for r in in_flight:
                ray.cancel(r, force=True)
            return {"committed": done,
                    "pending_left": len(manifest.pending(list(shards))),
                    "crashed": True}
        submit_next()

    # Global counters = reduction over per-shard lineage records (reference A2
    # printed per-page totals to the console; here they are durable data).
    records = manifest.committed().values()
    totals = {
        k: sum(r.get(k, 0) for r in records)
        for k in ("docs_in", "pages_in", "docs_out", "spans_out", "errors",
                  "tokens_in", "tokens_out", "api_calls", "api_retries")
    }
    totals["wall_s"] = round(sum(r.get("wall_s", 0.0) for r in records), 3)
    return {"committed": done,
            "pending_left": len(manifest.pending(list(shards))),
            "crashed": False,
            "total_shards": len(shards),
            "already_done": len(shards) - len(pending),
            "totals": totals}
