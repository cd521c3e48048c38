"""One benchmark run inside one fresh process and one fresh Ray session.

``run.py`` starts this module as a child process with a deadline. The child
starts Ray at ``--cpus``, spawns a worker that imports the package and loads
the OCR engine (the end of set-up), runs one untimed warm pass, then timed
passes until ``--seconds`` have elapsed. Each pass's output is consumed inside
its timing and left as parquet files under ``--scratch``; ``run.py`` checks
them against the golden tables once this process has ended, so the checker's
memory stays out of ``peak_rss_mb``. The result is written as JSON to
``--result``.

With ``--trace 1`` the timed passes give the untraced end-to-end wall, and an
in-process replay of the same shards (``tracing.py``) then gives the per-layer
ledger; the spans go to ``--trace-file``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import pyarrow as pa
import pyarrow.parquet as pq

import ray

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import corpora  # noqa: E402


@ray.remote(num_cpus=1)
def _warm_worker() -> None:
    from norsk_historisk_avis_ocr_ray.pipelines.sharded import cached_engine
    from norsk_historisk_avis_ocr_ray.stages.ocr import MockBarcodeOcr

    cached_engine(MockBarcodeOcr)


# -- one pass per workload ------------------------------------------------------
# Each takes the corpus, a fresh directory for its output and the CPU count, and
# returns its wall time plus either the consumed ``output`` table or the
# ``files`` it wrote.

def _consume(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow",
                                                 batch_size=None)))


def _pass_sharded(corpus_dir: str, out_dir: str, ncpu: int) -> dict:
    from norsk_historisk_avis_ocr_ray.pipelines.sharded import extract_sharded

    t0 = time.perf_counter()
    out = _consume(extract_sharded(corpus_dir))
    return {"wall_s": time.perf_counter() - t0, "output": out}


def _pass_resume(corpus_dir: str, out_dir: str, ncpu: int) -> dict:
    from norsk_historisk_avis_ocr_ray.pipelines.run import run_resumable

    n_shards = len([f for f in os.listdir(os.path.join(corpus_dir, "documents"))
                    if f.endswith(".parquet")])
    t0 = time.perf_counter()
    run_resumable(corpus_dir, out_dir, fail_after=n_shards // 2)
    crash_s = time.perf_counter() - t0
    first = _committed_files(out_dir)
    t1 = time.perf_counter()
    run_resumable(corpus_dir, out_dir)
    resume_s = time.perf_counter() - t1
    files = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir)
                   if f.endswith(".parquet"))
    return {"wall_s": crash_s + resume_s, "resume_s": resume_s,
            "shards_redone": _shards_redone(out_dir, first), "files": files}


def _committed_files(out_dir: str) -> dict[str, tuple[int, int]]:
    from norsk_historisk_avis_ocr_ray.state.manifest import Manifest

    done = Manifest(os.path.join(out_dir, "manifest.jsonl")).committed()
    out = {}
    for shard, rec in done.items():
        st = os.stat(rec["output"])
        out[shard] = (st.st_ino, st.st_mtime_ns)
    return out


def _shards_redone(out_dir: str, first: dict[str, tuple[int, int]]) -> int:
    """Shards committed before the crash that the resume committed again or
    whose output file it rewrote."""
    commits: dict[str, int] = defaultdict(int)
    with open(os.path.join(out_dir, "manifest.jsonl")) as f:
        for line in f:
            if line.strip():
                commits[json.loads(line)["shard"]] += 1
    now = _committed_files(out_dir)
    return sum(1 for shard, stamp in first.items()
               if commits[shard] != 1 or now.get(shard) != stamp)


def _pass_dataflow(corpus_dir: str, out_dir: str, ncpu: int) -> dict:
    from norsk_historisk_avis_ocr_ray.pipelines.extract import extract

    docs = ray.data.read_parquet(os.path.join(corpus_dir, "documents"))
    t0 = time.perf_counter()
    # the call bench.py's run_shuffle_pipeline makes
    ds = extract(docs, os.path.join(corpus_dir, "pages"),
                 ocr_concurrency=max(2, (3 * ncpu) // 4),
                 ocr_batch_size=48,
                 media_resolution="dataflow")
    out = _consume(ds)
    return {"wall_s": time.perf_counter() - t0, "output": out,
            "stats": ds.stats()}


PASSES = {
    "pages-zlib": _pass_sharded,
    "text-only": _pass_sharded,
    "resume-lossless": _pass_resume,
    "dataflow-join": _pass_dataflow,
}
REPLAY_MODE = {"pages-zlib": "sharded", "text-only": "sharded",
               "resume-lossless": "run"}


def keep_output(p: dict, out_dir: str) -> None:
    """Leave a pass's consumed ``output`` table as ``files`` for ``run.py``."""
    out = p.pop("output", None)
    if out is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "output.parquet")
        pq.write_table(out, path)
        p["files"] = [path]


# -- process accounting -------------------------------------------------------

def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children[ppid].append(int(name))
    out, todo = [], list(children[root])
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children[pid])
    return out


def _vmhwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reset_peak() -> None:
    """Reset this process's VmHWM to its current RSS, after handing freed
    memory back to the OS."""
    gc.collect()
    pa.default_memory_pool().release_unused()
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb(driver_mb: float) -> dict[str, float]:
    """``driver_mb`` for this process, which started Ray, and VmHWM in MB of
    each of the session's worker processes, keyed ``main`` or by the
    worker's title."""
    out = {"main": driver_mb}
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                title = f.read().split(b"\0")[0].decode(errors="replace")
        except OSError:
            continue
        if title.startswith("ray::"):
            out[f"{title.strip()} [{pid}]"] = _vmhwm_kb(pid) / 1024.0
    return out


# -- the run --------------------------------------------------------------------

def start_session(args) -> float:
    """Ray up, one worker spawned with the package imported and the engine
    loaded. Returns set-up seconds since the parent spawned this process."""
    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR", object_store_memory=512 * 2**20,
             _temp_dir=args.ray_tmp or None)
    ray.get(_warm_worker.remote())
    return time.time() - args.t0


def _wait_idle(cpus: int, timeout_s: float = 10.0) -> None:
    """Start every pass on an idle session, as a fresh job would: wait until
    the previous pass's tasks have released their CPUs."""
    t_end = time.perf_counter() + timeout_s
    while (ray.available_resources().get("CPU", 0) < cpus
           and time.perf_counter() < t_end):
        time.sleep(0.02)


def timed_passes(args) -> tuple[list[dict], float]:
    """Warm pass, then timed passes for ``args.seconds``. Returns the passes
    and this process's peak RSS in MB over them: VmHWM is reset before each
    pass and read right after it, before its output is written out."""
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    run_pass = PASSES[args.workload]
    _wait_idle(args.cpus)
    run_pass(args.warm_corpus, os.path.join(args.scratch, "warm"), args.cpus)
    passes, driver_kb = [], 0
    t_end = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < t_end:
        _wait_idle(args.cpus)
        _reset_peak()
        out_dir = os.path.join(args.scratch, f"pass-{len(passes):03d}")
        p = run_pass(args.corpus, out_dir, args.cpus)
        driver_kb = max(driver_kb, _vmhwm_kb(os.getpid()))
        keep_output(p, out_dir)
        passes.append(p)
    return passes, driver_kb / 1024.0


def write_trace(args, result: dict) -> None:
    """In-process traced replay of this workload's shards, plus probes of the
    layers it never runs; writes the trace and leaves the traced replays'
    outputs in ``result["outputs"]`` for the golden check."""
    import ledger
    import tracing

    meta = {"workload": args.workload, "seed": args.seed, "cpus": args.cpus,
            "docs": result["docs"], "pages": result["pages"],
            "shards": len(os.listdir(os.path.join(args.corpus, "documents"))),
            "e2e_cpu_ms": statistics.median(result["wall_s"]) * args.cpus * 1e3,
            "rounds": 0, "probe_shards": 0}
    spans: list[dict] = []
    if "stats" in result:
        meta["dataflow"] = ledger.dataflow_walls(result["stats"])
    mode = REPLAY_MODE.get(args.workload)
    if mode is not None:
        rep = tracing.measure(args.corpus, mode, args.scratch, args.seconds)
        meta.update(rounds=len(rep["traced_ms"]), traced_ms=rep["traced_ms"],
                    unwrapped_ms=rep["unwrapped_ms"])
        spans = rep["spans"]
        for i, out in enumerate(rep["outputs"]):
            p = {"output": out}
            keep_output(p, os.path.join(args.scratch, f"replay-{i:03d}"))
            result["outputs"].append(p)
    for probe_dir in args.probe:
        probe_mode = "run" if "resume-lossless" in os.path.basename(probe_dir) \
            else "sharded"
        spans += tracing.probe(probe_dir, probe_mode, args.scratch)
        meta["probe_shards"] += len(os.listdir(os.path.join(probe_dir, "documents")))
    tracing.write_trace(args.trace_file, meta, spans)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--corpus", default="")
    ap.add_argument("--warm-corpus", default="")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--probe", action="append", default=[])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cpus", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--ray-tmp", default="")
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup_s = start_session(args)
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        passes, driver_mb = timed_passes(args)
        result["rss_parts_mb"] = peak_rss_mb(driver_mb)
        result["rss_mb"] = sum(result["rss_parts_mb"].values())
        docs = corpora.count_rows(args.corpus, "golden")
        walls = [p["wall_s"] for p in passes]
        result.update(docs=docs, pages=corpora.count_rows(args.corpus, "pages"),
                      wall_s=walls,
                      docs_per_s=statistics.median(docs / w for w in walls),
                      outputs=[{k: p[k] for k in ("files", "shards_redone")
                                if k in p} for p in passes])
        for key in ("resume_s", "shards_redone"):
            if key in passes[0]:
                result[key] = [p[key] for p in passes]
        if "stats" in passes[-1]:
            result["stats"] = passes[-1]["stats"]
        if args.trace:
            write_trace(args, result)
    ray.shutdown()
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
