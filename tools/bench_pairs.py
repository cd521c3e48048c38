"""Paired benchmark runs of two checkouts, alternating.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Runs the benchmark command of CHANGE_DIR's ``BENCHMARK.json`` (``perfbench/
run.py``) for ``W`` and ``S`` at its ``run_seconds``, in each checkout, N
times each. The side that goes first swaps on every pair, so a drift of the
host's load weighs on both sides alike. A run that is not ``correct`` with
0 failed stops the comparison with exit code 1: its metrics would not
describe working code.

Each run's metrics go to stderr as they come. At the end, for every
end-to-end metric of ``BENCHMARK.json``, stdout gets the parent's and the
change's median and interquartile range, the change of the median, and how
many of the N pairs the change won (strictly better, in the metric's
direction). Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    """One benchmark run in ``checkout``: its end-to-end metric values."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{checkout}: no result line (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    if not result.get("correct") or result.get("failed") != 0:
        sys.exit(f"{checkout}: refused a run that is not correct with 0 "
                 f"failed: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args()

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(sides[side], bench["command"], args.workload,
                               args.seed, bench["run_seconds"])
            runs[side].append(metrics)
            print(f"pair {i + 1} {side}: {json.dumps(metrics)}",
                  file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs")
    print(f"{'metric':<12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'won':>6}")
    for metric in bench["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        won = sum((c > p) if higher else (c < p)
                  for p, c in zip(parent, change))
        cells = []
        for values in (parent, change):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.5g} "
                         f"[{q1:.5g}, {q3:.5g}]")
        pm, cm = statistics.median(parent), statistics.median(change)
        delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(f"{name:<12} {cells[0]:>30} {cells[1]:>30} {delta:>8} "
              f"{won:>3}/{args.pairs}")


if __name__ == "__main__":
    main()
