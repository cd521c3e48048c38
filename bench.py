"""Benchmark harness.

Headline: pages/sec of the full OCR+extraction pipeline (layout → mock OCR →
clean → groupby(doc_id) repack → correction) over a deterministic synthetic
page corpus (cached under /tmp). Also times the generic query suite over
$GRAFT_SF_DIR (default /root/testdata/sf0.1).

Prints the FULL per-query JSON (an earlier line + BENCH_QUERIES.json
sidecar), then a compact headline JSON as the FINAL stdout line
(metric/value/top-8 slowest queries/pages_per_sec) — the driver tails
~2000 chars and parses the last line, so the final line must stay short:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...top-8 slowest...}, "n_queries": N, "sf": ...,
   "num_cpus": N, "pages": P, "pages_per_sec": X}

`--scaling`: interleaved fresh-process runs of the headline at two CPU
levels (default 4 and 16; `--pair A,B`, `--repeats N`), EQUAL-DURATION
corpora (docs/CPU constant per level), reporting median/best throughput per
level + scaling efficiency (the sandbox evidence for the N→4N cluster
criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_DOCS = int(os.environ.get("NHAO_BENCH_DOCS", "32000"))
BENCH_SEED = 42
CORPUS_ROOT = os.environ.get("NHAO_BENCH_CORPUS", "/tmp/nhao_bench_corpus")


def ensure_corpus(n_docs: int) -> str:
    path = os.path.join(CORPUS_ROOT, f"{n_docs}_{BENCH_SEED}")
    if not os.path.exists(os.path.join(path, "_SUCCESS")):
        from norsk_historisk_avis_ocr_ray.synth.corpus import write_corpus_parallel
        write_corpus_parallel(path, n_docs, seed=BENCH_SEED,
                              n_shards=max(64, n_docs // 128))
    return path


def _warm_workers(batch):
    # pre-import the heavy modules in every Ray worker process
    import norsk_historisk_avis_ocr_ray.pipelines.sharded  # noqa: F401
    import norsk_historisk_avis_ocr_ray.stages.ocr  # noqa: F401
    return batch


def run_headline(corpus_dir: str, ncpu: int) -> dict:
    """Headline: shard-local extraction (zero-shuffle path for the
    co-partitioned corpus; see pipelines.sharded)."""
    import pyarrow.parquet as pq

    import ray
    from norsk_historisk_avis_ocr_ray.pipelines.sharded import extract_sharded

    pages_dir = os.path.join(corpus_dir, "pages")
    n_pages = pq.read_table(pages_dir, columns=["media_ref"]).num_rows
    n_docs = ray.data.read_parquet(
        os.path.join(corpus_dir, "documents")).count()  # warms the page cache

    # Steady-state measurement: spawn + pre-import the worker pool before the
    # clock starts. Worker startup is a per-SESSION cost; leaving it in the
    # timed window biases the small-CPU level (same absolute cost, amortized
    # over a 3-4x longer run).
    ray.data.range(ncpu * 64, override_num_blocks=ncpu * 4).map_batches(
        _warm_workers, batch_size=16).count()

    t0 = time.time()
    out = extract_sharded(corpus_dir)
    n_out = out.count()
    dt = time.time() - t0
    assert n_out > 0
    return {"sec": round(dt, 3), "docs": n_docs, "pages": n_pages,
            "pages_per_sec": round(n_pages / dt, 2),
            "docs_per_sec": round(n_docs / dt, 2)}


def run_shuffle_pipeline(corpus_dir: str) -> float:
    """Secondary: the general shuffle-based pipeline (the join path) on
    the same corpus — the path for non-co-partitioned inputs.

    OCR runs as Ray tasks. At 32 CPUs, round 5 measured a tuned OCR actor
    pool (3N/4 actors, batches of 48 pages) at 21.1 s against 26.4 s for
    the task form. That pool is gone because it stalls a 1-CPU session, so
    this figure may read up to ~25% slower than round 5 until a multi-CPU
    host re-measures both forms."""
    import ray
    from norsk_historisk_avis_ocr_ray.pipelines.extract import extract

    docs = ray.data.read_parquet(os.path.join(corpus_dir, "documents"))
    t0 = time.time()
    extract(docs, os.path.join(corpus_dir, "pages")).count()
    return round(time.time() - t0, 3)


def consume(result) -> None:
    from ray.data import Dataset
    if isinstance(result, Dataset):
        for _ in result.iter_batches(batch_format="pyarrow"):
            pass
    # pandas/arrow results are already materialized


def run_queries(passes: int = 2) -> dict[str, float]:
    """Per-query wall time, min over ``passes`` full sweeps.

    This shared host runs ~20-30 s noise bursts that land on a random query
    each sweep (observed round 3: q3 29.4 s then 3.3 s, q_sessionize 3.4 s
    then 18.6 s, same code). A single sweep therefore reports 1-3 phantom
    ~10x regressions per run; the min of two sweeps is the reproducible
    engine cost. (Rounds 1-2 reported single-sweep numbers.)"""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    timings: dict[str, float] = {}
    skip = {"ocr_extract"}  # the headline covers it at larger scale
    for _ in range(passes):
        for name, fn in entrymod.queries().items():
            if name in skip:
                continue
            t0 = time.time()
            consume(fn(SF_DIR))
            dt = round(time.time() - t0, 3)
            timings[name] = min(timings.get(name, dt), dt)
    return timings


def main() -> None:
    headline_only = "--headline-only" in sys.argv

    if "--scaling" in sys.argv:
        # Corpus built once (child processes reuse the cache); each level runs
        # in a fresh interpreter → fresh ray.init(num_cpus=...).
        #
        # Default pair is (4, 16): this sandbox is ONE VM, and above ~16
        # workers the layout stage saturates the VM's memory bandwidth (a
        # raw-multiprocessing harness shows the same ceiling — see
        # BASELINE.md), which a real N→4N *node* scale-out does not share
        # since each node brings its own memory. Pass "--pair 8,32" to
        # measure the bandwidth-capped pair too.
        # EQUAL-DURATION (weak-scaling) measurement: each level's corpus is
        # sized to its CPU count so every run lasts ~2 min. Throughput is
        # corpus-size-independent, but a short (~35 s) big-level run cannot
        # average out this shared host's noise bursts the way the long
        # small-level run does — measured ±40% run-to-run at 16 CPUs on the
        # fixed corpus vs ±7% at 4 CPUs, which biases the ratio downward.
        def run_once(ncpu: int, n_docs: int) -> dict:
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                       NHAO_BENCH_DOCS=str(n_docs))
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--headline-only"],
                env=env, capture_output=True, text=True, check=True).stdout
            return json.loads(out.strip().splitlines()[-1])

        # This VM's performance fluctuates run to run (shared host). Report
        # BOTH the median-of-N and best-of-N per level: median is the honest
        # central estimate (the headline efficiency number), best bounds what
        # the engine does when the host isn't stealing cycles.
        repeats = 2
        if "--repeats" in sys.argv:
            repeats = int(sys.argv[sys.argv.index("--repeats") + 1])

        lo, hi = 4, 16
        if "--pair" in sys.argv:
            lo, hi = map(int, sys.argv[sys.argv.index("--pair") + 1].split(","))

        # per-level corpus: same docs/CPU at both levels (equal duration)
        docs_lo = BENCH_DOCS
        docs_hi = BENCH_DOCS * hi // lo

        # Generate both corpora at full width in the parent (untimed) so the
        # small-CPU child doesn't pay generation at low parallelism.
        import ray
        ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
                 logging_level="ERROR")
        ensure_corpus(docs_lo)
        ensure_corpus(docs_hi)
        ray.shutdown()

        # Interleave the levels (lo,hi,lo,hi,...) so slow host-level drift
        # hits both levels equally, then take the best per level.
        runs_lo, runs_hi = [], []
        for _ in range(repeats):
            runs_lo.append(run_once(lo, docs_lo))
            runs_hi.append(run_once(hi, docs_hi))
        import statistics
        pps_lo_all = [r["pages_per_sec"] for r in runs_lo]
        pps_hi_all = [r["pages_per_sec"] for r in runs_hi]
        med_lo = statistics.median(pps_lo_all)
        med_hi = statistics.median(pps_hi_all)
        best_lo = max(pps_lo_all)
        best_hi = max(pps_hi_all)
        # Paired interleaved ratios: run i at lo vs run i at hi — drift that
        # spans a (lo, hi) pair cancels; median of those ratios is the most
        # drift-robust single estimate.
        paired = [
            round((h / l) / (hi / lo), 3)
            for l, h in zip(pps_lo_all, pps_hi_all)
        ]
        print(json.dumps({
            "metric": "ocr_extract_scaling", "unit": "pages/sec",
            "cpus_small": lo, "cpus_big": hi,
            "pages_per_sec_small_median": round(med_lo, 2),
            "pages_per_sec_big_median": round(med_hi, 2),
            "pages_per_sec_small_best": round(best_lo, 2),
            "pages_per_sec_big_best": round(best_hi, 2),
            "runs_small": pps_lo_all,
            "runs_big": pps_hi_all,
            "scaling_efficiency": round((med_hi / med_lo) / (hi / lo), 3),
            "scaling_efficiency_best": round((best_hi / best_lo) / (hi / lo), 3),
            "paired_efficiencies": paired,
            "paired_efficiency_median": statistics.median(paired),
            "aggregation": "median-of-%d per level (headline); best-of-%d and "
                           "paired interleaved ratios reported alongside"
                           % (repeats, repeats),
            "pages_small": runs_lo[0]["pages"],
            "pages_big": runs_hi[0]["pages"],
            "equal_duration": "corpus sized to CPU count per level "
                              "(docs/CPU constant)",
        }))
        return

    import ray
    ray.init(address="local", num_cpus=NCPU, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    corpus_dir = ensure_corpus(BENCH_DOCS)
    headline = run_headline(corpus_dir, NCPU)
    queries = {}
    if not headline_only:
        # shuffle pipeline right after the headline: 50+ query pipelines of
        # session residue (idle actor pools, object-store fill) measured
        # +35% on this stage when it ran last (69.6s vs 34.7s fresh)
        queries["ocr_shuffle_pipeline"] = run_shuffle_pipeline(corpus_dir)
        queries.update(run_queries())

    sf = 0.1 if "0.1" in SF_DIR else (0.01 if "0.01" in SF_DIR else 0.001)
    # Full per-query map: an EARLIER stdout line + a sidecar file. The
    # FINAL stdout line must stay short — the driver tails only ~2000
    # chars and parses the last line; round 3's single giant line
    # overflowed it and the whole bench scored `parsed: null`.
    full = {
        "metric": "ocr_extract_wall_sec",
        "value": headline["sec"],
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NCPU,
        "docs": headline["docs"],
        "pages": headline["pages"],
        "pages_per_sec": headline["pages_per_sec"],
        "docs_per_sec": headline["docs_per_sec"],
    }
    print(json.dumps(full))
    if not headline_only:
        # scaling/headline-only child runs must not clobber the full-suite
        # sidecar with an empty query map
        try:
            with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "BENCH_QUERIES.json"), "w") as f:
                json.dump(full, f, indent=1)
        except OSError:
            pass
    slowest = dict(sorted(queries.items(), key=lambda kv: -kv[1])[:8])
    print(json.dumps({
        "metric": "ocr_extract_wall_sec",
        "value": headline["sec"],
        "unit": "sec",
        "queries": {k: round(v, 2) for k, v in slowest.items()},
        "n_queries": len(queries),
        "queries_total_sec": round(sum(queries.values()), 2),
        "queries_file": "BENCH_QUERIES.json",
        "sf": sf,
        "num_cpus": NCPU,
        "docs": headline["docs"],
        "pages": headline["pages"],
        "pages_per_sec": headline["pages_per_sec"],
        "docs_per_sec": headline["docs_per_sec"],
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
