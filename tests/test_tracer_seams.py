"""The extraction benchmark's tracer (``perfbench/tracing.py``) patches the
pipelines' layer functions where their callers look them up, and calls two
shard bodies positionally. A refactor that moves one of those names breaks
the per-layer trace; these checks see it without running the benchmark."""

import inspect
import os

import pyarrow as pa

from norsk_historisk_avis_ocr_ray.pipelines import run as run_mod
from norsk_historisk_avis_ocr_ray.pipelines import sharded
from norsk_historisk_avis_ocr_ray.stages.ocr import MockBarcodeOcr

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_patches_and_restores_every_layer(monkeypatch):
    # patched() reads each target as obj.__dict__[name]: a moved name is a
    # KeyError
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    before = sharded.explode_spans, sharded.repack_table, run_mod.process_shard
    with tracing.patched(tracing.Tracer()):
        assert sharded.explode_spans is not before[0]
    assert (sharded.explode_spans, sharded.repack_table,
            run_mod.process_shard) == before


def test_tracer_calls_bind_to_the_shard_bodies():
    # tracing.replay: _shard_task_fn(engine_factory, True, True)(table) and
    # _run_shard._function(shard, out_dir, True, True, engine_factory)
    body = sharded._shard_task_fn(MockBarcodeOcr, True, True)
    inspect.signature(sharded._shard_task_fn).bind(MockBarcodeOcr, True, True)
    inspect.signature(body).bind(pa.table({"shard": ["s"]}))
    inspect.signature(run_mod._run_shard._function).bind(
        {"shard": "s"}, "out", True, True, MockBarcodeOcr)
