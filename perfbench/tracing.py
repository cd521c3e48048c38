"""Traced in-process replay of the real shard bodies.

The replay calls the same per-shard code a Ray worker runs —
``pipelines.sharded._shard_task_fn(...)`` on one-row shard tables, or
``pipelines.run._run_shard._function`` followed by a manifest commit — in the
benchmark's own process, without Ray. While ``patched(tracer)`` is active the
public functions each layer calls are wrapped where their caller looks them
up, and every call records a span ``(name, start, end, parent)`` plus the
counts the ledger divides by. Spans stay in memory and are written as JSON
lines at the end (``write_trace``); ``ledger.py`` turns the file into the
per-layer table.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import time
from collections import Counter
from typing import Any, Callable

import pyarrow as pa
import pyarrow.parquet as pq

from norsk_historisk_avis_ocr_ray.pipelines import run as run_mod
from norsk_historisk_avis_ocr_ray.pipelines import sharded
from norsk_historisk_avis_ocr_ray.stages import layout as layout_mod
from norsk_historisk_avis_ocr_ray.stages import ocr as ocr_mod
from norsk_historisk_avis_ocr_ray.state.manifest import Manifest


# Span ids are unique across tracers: one trace file holds the spans of a
# workload's replays and of its probes, and parents are looked up by id.
_SPAN_IDS = itertools.count()


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = next(_SPAN_IDS)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter_ns(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter_ns()

    def wrap(self, name: str, fn: Callable,
             count: Callable[..., dict] | None = None) -> Callable:
        """``fn`` recording a span per call; ``count(result, *args, **kw)``
        adds attributes."""
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if count is not None:
                    attrs.update(count(result, *args, **kwargs))
                return result
        return traced


class _ModuleProxy:
    """Stands in for a module attribute (``pq``) with some names replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _read_count(table, source, *_, **__) -> dict:
    return {"bytes": os.path.getsize(source) if isinstance(source, str) else 0}


def _decode_count(result, buf, width, height, codec="raw-zlib", *_, **__) -> dict:
    return {"codec": codec, "bytes": len(buf)}


def _regions_count(result, *_, **__) -> dict:
    return {"regions": len(result.regions)}


def _rows_count(result, *_, **__) -> dict:
    return {"rows": result.num_rows}


def _clean_count(result, batch, *_, **__) -> dict:
    errors = Counter(e.split(":", 1)[0]
                     for e in batch["error"].to_pylist() if e)
    return {"rows": batch.num_rows, "errors": dict(errors)}


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap each layer's public entry point where its caller looks it up."""
    w = tracer.wrap
    engine_cls = ocr_mod.MockBarcodeOcr

    class TracedCorrector(sharded.CorrectorStage):
        def __call__(self, batch: pa.Table) -> pa.Table:
            with tracer.span("correct") as attrs:
                out = super().__call__(batch)
                attrs.update(rows=out.num_rows,
                             edited=sum(out["corrected"].to_pylist()))
                return out

    targets = [
        (sharded, "pq", _ModuleProxy(pq, read_table=w("load.read", pq.read_table, _read_count))),
        (run_mod, "pq", _ModuleProxy(pq, read_table=w("load.read", pq.read_table, _read_count),
                                     write_table=w("write", pq.write_table))),
        (sharded, "process_shard", w("process_shard", sharded.process_shard)),
        (run_mod, "process_shard", w("process_shard", run_mod.process_shard)),
        (sharded, "explode_spans", w("explode", sharded.explode_spans, _rows_count)),
        (sharded, "clean_batch", w("clean", sharded.clean_batch, _clean_count)),
        (sharded, "repack_table", w("repack", sharded.repack_table, _rows_count)),
        (sharded, "CorrectorStage", TracedCorrector),
        (ocr_mod.LayoutOcrStage, "__call__", w("ocr_stage", ocr_mod.LayoutOcrStage.__call__)),
        (ocr_mod, "decode_with_band_profiles",
         w("decode", ocr_mod.decode_with_band_profiles, _decode_count)),
        (ocr_mod, "split_columns", w("layout", ocr_mod.split_columns, _regions_count)),
        (layout_mod, "find_band_dividers", w("layout.band_dividers", layout_mod.find_band_dividers)),
        (layout_mod, "find_gap_boundaries", w("layout.gap_boundaries", layout_mod.find_gap_boundaries)),
        (layout_mod, "detect_title_region", w("layout.title", layout_mod.detect_title_region)),
        (engine_cls, "ocr_region", w("ocr", engine_cls.ocr_region)),
    ]
    saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in targets]
    try:
        for obj, name, new in targets:
            setattr(obj, name, new)
        yield tracer
    finally:
        for obj, name, old in saved:
            setattr(obj, name, old)


def replay(corpus_dir: str, mode: str, out_dir: str,
           tracer: Tracer | None = None) -> pa.Table:
    """Run every shard of ``corpus_dir`` through the real shard body, in
    process. ``mode`` is ``"sharded"`` (``extract_sharded``'s body) or
    ``"run"`` (``run_resumable``'s body plus the manifest commit, writing into
    ``out_dir``). Returns the concatenated output table."""
    engine_factory: Callable[[], Any] = ocr_mod.MockBarcodeOcr
    span = tracer.span if tracer is not None else _no_span
    outs = []
    if mode == "sharded":
        body = sharded._shard_task_fn(engine_factory, True, True)
        for shard in sharded.list_shards(corpus_dir):
            with span("shard"):
                outs.append(body(pa.Table.from_pylist([shard])))
        return pa.concat_tables(outs)
    manifest = Manifest(os.path.join(out_dir, "manifest.jsonl"))
    for shard in sharded.list_shards(corpus_dir):
        with span("shard"):
            lineage = run_mod._run_shard._function(shard, out_dir, True, True,
                                                   engine_factory)
        with span("manifest.commit"):
            manifest.commit(lineage["shard"], lineage)
        outs.append(pq.read_table(lineage["output"]))
    return pa.concat_tables(outs)


@contextlib.contextmanager
def _no_span(name: str, **attrs):
    yield attrs


def measure(corpus_dir: str, mode: str, scratch: str,
            seconds: float) -> dict:
    """Alternate unwrapped and traced replays of every shard until
    ``seconds`` have passed (at least one of each). Returns the traced spans,
    the wall ms of every replay of either kind and the traced outputs."""
    tracer = Tracer()
    traced_ms, unwrapped_ms, outputs = [], [], []
    t_end = time.perf_counter() + seconds
    while not traced_ms or time.perf_counter() < t_end:
        for traced in (False, True):
            out_dir = os.path.join(scratch, "replay-out")
            shutil.rmtree(out_dir, ignore_errors=True)
            t0 = time.perf_counter()
            if traced:
                with patched(tracer):
                    outputs.append(replay(corpus_dir, mode, out_dir, tracer))
                traced_ms.append((time.perf_counter() - t0) * 1e3)
            else:
                replay(corpus_dir, mode, out_dir)
                unwrapped_ms.append((time.perf_counter() - t0) * 1e3)
    return {"spans": tracer.spans, "traced_ms": traced_ms,
            "unwrapped_ms": unwrapped_ms, "outputs": outputs}


def probe(corpus_dir: str, mode: str, scratch: str) -> list[dict]:
    """One traced replay of a small corpus of another workload; its spans
    are marked ``probe``."""
    tracer = Tracer()
    out_dir = os.path.join(scratch, "probe-out")
    shutil.rmtree(out_dir, ignore_errors=True)
    with patched(tracer):
        replay(corpus_dir, mode, out_dir, tracer)
    for s in tracer.spans:
        s["probe"] = True
    return tracer.spans


def write_trace(path: str, meta: dict, spans: list[dict]) -> None:
    """One ``{"meta": ...}`` line, then one JSON line per span."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        f.write(json.dumps({"meta": meta}) + "\n")
        for s in spans:
            f.write(json.dumps(s) + "\n")
