"""Extraction benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload pages-zlib --seed 1 --seconds 8 --trace 0

Run from the repository root. Set-up generates (or reuses) the workload's
corpus for the seed under ``.bench_build/perfbench``, then starts the run in a
child process (``session.py``) with a fresh Ray session at ``nproc`` CPUs and a
deadline. A child that raises or misses its deadline is killed, Ray is stopped
(``ray stop --force``) and every doc it was given counts as failed. Otherwise
the output of each of its passes is golden-checked here, once it has ended.
Set-up is also timed in two set-up-only children; ``setup_s`` is the median
of the three.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
PACKAGE = "norsk_historisk_avis_ocr_ray"
WORKLOADS = ("pages-zlib", "text-only", "resume-lossless", "dataflow-join")
# per-layer probes: one shard of each workload that runs the media and
# write/manifest layers (see ledger.py)
PROBE_SHAPES = {"pages-zlib": (1, 128), "resume-lossless": (1, 128)}
SETUP_PROBES = 2
BUDGET_S = 150.0  # set-up and the run; teardown of a hung run takes ~20 s more


def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def ray_temp_dir() -> str:
    """A Ray temp dir inside the checkout, or "" (Ray's default) when the
    path would push Ray's socket names past the 107-byte AF_UNIX limit."""
    path = os.path.join(ROOT, ".bench_build", "ray")
    return path if len(path) <= 43 else ""


def _group_alive(pgid: int) -> bool:
    """Whether any live (non-zombie) process is in process group ``pgid``."""
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                state, _, group = f.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(group) == pgid and state != "Z":
            return True
    return False


def _end_session(pgid: int, force: bool) -> None:
    """Wait until every process of the run's process group — the child and
    the Ray session it started — has ended, killing the group after 20 s
    and giving up after 40 s; ``force`` first kills it and runs
    ``ray stop --force``."""
    if force:
        _killpg(pgid)
        subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                        "--force"], capture_output=True, timeout=60)
    start = time.time()
    while _group_alive(pgid) and time.time() - start < 40:
        if time.time() - start > 20:
            _killpg(pgid)
        time.sleep(0.2)


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], deadline_s: float, ray_tmp: str) -> dict | None:
    """Run ``session.py`` in its own process group; None when it fails or
    misses the deadline (the session is torn down either way)."""
    fd, result_path = tempfile.mkstemp(dir=CACHE, suffix=".json")
    os.close(fd)
    env = dict(os.environ, PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, os.path.join(HERE, "session.py"), *argv,
           "--t0", repr(time.time()), "--result", result_path]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                             stderr=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline_s))
    except subprocess.TimeoutExpired:
        print(f"run missed its {deadline_s:.0f} s deadline; tearing down",
              file=sys.stderr)
        _print_executor_snapshot(ray_tmp)
        _killpg(child.pid)
        child.wait()
        code = None
    if code not in (0, None):
        print(f"run failed with exit code {code}", file=sys.stderr)
    _end_session(child.pid, force=code != 0)
    try:
        with open(result_path) as f:
            result = json.load(f) if code == 0 else None
    except (OSError, ValueError):
        result = None
    os.unlink(result_path)
    return result


_OP_STATE = re.compile(r"streaming_executor\.py:\d+ -- (\d+: - .*)")


def _print_executor_snapshot(ray_tmp: str) -> None:
    """The last operator-state dump Ray Data logged, for a run that hung."""
    base = ray_tmp or os.path.join(os.environ.get("RAY_TMPDIR", "/tmp/ray"), "ray")
    latest = os.path.join(base, "session_latest", "logs", "ray-data", "ray-data.log")
    try:
        with open(latest) as f:
            lines = [m.group(1) for m in map(_OP_STATE.search, f) if m]
    except OSError:
        return
    snapshot, seen = [], set()
    for ln in reversed(lines):  # the last dump: op indices count down to 0
        idx = ln.split(":", 1)[0]
        if idx in seen:
            break
        seen.add(idx)
        snapshot.append(ln)
    print("executor snapshot at the deadline:", *reversed(snapshot),
          sep="\n  ", file=sys.stderr)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.time()

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        sys.exit(f"{PACKAGE}/ not found under {ROOT}: nothing to benchmark")
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    import corpora
    import golden

    os.makedirs(CACHE, exist_ok=True)
    corpus = corpora.ensure_corpus(CACHE, args.workload, args.seed)
    warm = corpora.ensure_corpus(CACHE, args.workload, args.seed,
                                 corpora.WARM_SHAPE)
    probes = [corpora.ensure_corpus(CACHE, name, args.seed, shape)
              for name, shape in PROBE_SHAPES.items()
              if args.trace and name != args.workload]
    scratch = tempfile.mkdtemp(dir=CACHE, prefix="run-")
    ray_tmp = ray_temp_dir()
    cpus = nproc()
    common = ["--workload", args.workload, "--cpus", str(cpus),
              "--scratch", scratch, "--seed", str(args.seed)]
    if ray_tmp:
        common += ["--ray-tmp", ray_tmp]

    setups = []
    for _ in range(SETUP_PROBES):
        r = run_child(common + ["--setup-only"], 60.0, ray_tmp)
        if r is not None:
            setups.append(r["setup_s"])
    argv = common + ["--corpus", corpus, "--warm-corpus", warm,
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = os.path.join(CACHE, "traces", f"{args.workload}-{args.seed}.jsonl")
    if args.trace:
        argv += ["--trace-file", trace_file]
        for probe in probes:
            argv += ["--probe", probe]
    result = run_child(argv, BUDGET_S - (time.time() - t_start), ray_tmp)

    want = corpora.read_golden(corpus)
    if result is None:  # raised or missed its deadline: all its docs failed
        summary = {"correct": False, "attempted": want.num_rows,
                   "failed": want.num_rows, "metrics": {}}
    else:
        result.update(golden.merge([
            golden.check_files(o["files"], want, o.get("shards_redone", 0))
            for o in result.pop("outputs")]))
        setups.append(result["setup_s"])
        summary = {"correct": result["failed"] == 0,
                   "attempted": result["attempted"], "failed": result["failed"],
                   "metrics": {}}
        if args.trace:
            import ledger

            meta, spans = ledger.read_trace(trace_file)
            led = ledger.compute(meta, spans)
            print(ledger.format_table(meta, led), file=sys.stderr)
            summary["metrics"] = {k: {"value": led["metrics"][k], "unit": unit}
                                  for k, unit in ledger.UNITS.items()
                                  if led["metrics"].get(k) is not None}
        else:
            summary["metrics"] = {
                "docs_per_s": {"value": result["docs_per_s"], "unit": "1/s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
            }
        result.pop("stats", None)
        print(json.dumps(result), file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
