"""Per-layer ledger from a trace file.

    python3 perfbench/ledger.py TRACE.jsonl

prints the per-layer table for any trace the benchmark wrote (``run.py
--trace 1`` leaves it under ``.bench_build/perfbench/traces/``).

A span's self time is its duration minus the time its child spans cover. Each
layer is the self time of the spans named for it (``LAYERS``); the framework
row is the untraced end-to-end CPU time of a pass minus the traced kernel
time of a pass, so the layer rows plus the framework row add up to the
end-to-end time. Spans marked ``probe`` come from a small corpus of another
workload; they fill the per-unit rows of layers the traced workload
never runs and are left out of the accounting.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter, defaultdict

# layer -> the span names whose self time it owns
LAYERS = {
    "load": ("shard", "load.read"),
    "glue": ("process_shard", "ocr_stage"),
    "explode": ("explode",),
    "decode": ("decode",),
    "layout": ("layout",),
    "layout.band_dividers": ("layout.band_dividers",),
    "layout.gap_boundaries": ("layout.gap_boundaries",),
    "layout.title": ("layout.title",),
    "ocr": ("ocr",),
    "clean": ("clean",),
    "repack": ("repack",),
    "correct": ("correct",),
    "write": ("write",),
    "manifest": ("manifest.commit",),
}
CODECS = ("raw-zlib", "png", "tiff")

# the per-layer metrics a traced run reports, with their units
UNITS = {
    "load.ms_per_shard": "ms", "load.mb_per_shard": "MB",
    "glue.ms_per_shard": "ms",
    **{f"decode.{c}.ms_per_page": "ms" for c in CODECS},
    "decode.payload_kb_per_page": "KB",
    "layout.ms_per_page": "ms", "layout.band_dividers.ms_per_page": "ms",
    "layout.gap_boundaries.ms_per_page": "ms",
    "layout.gap_boundaries.calls_per_page": "count",
    "layout.title.ms_per_page": "ms", "layout.regions_per_page": "count",
    "ocr.ms_per_region": "ms",
    "explode.ms_per_1k_spans": "ms", "clean.ms_per_1k_regions": "ms",
    "repack.ms_per_1k_docs": "ms", "correct.ms_per_1k_docs": "ms",
    "correct.edited_share": "ratio",
    "write.ms_per_shard": "ms", "manifest.commit_ms": "ms",
    "framework.ms_per_shard": "ms", "framework.ms_per_doc": "ms",
    "trace.overhead_share": "ratio",
}


DATAFLOW_OPS = {"ocr": ("PageOcrStage", "page_ocr_batch"), "join": ("Join",),
                "repack": ("_repack_bucket",)}


def dataflow_walls(stats: str) -> dict[str, float]:
    """Wall seconds of the OCR, join and repack operators, summed over the
    ``Operator N <name>: ... in <t>s`` lines of ``Dataset.stats()``."""
    walls: dict[str, float] = defaultdict(float)
    for line in stats.splitlines():
        m = re.match(r"\s*Operator \d+ (.+?): .* in ([0-9.]+)s", line)
        if not m:
            continue
        for key, needles in DATAFLOW_OPS.items():
            if any(n in m.group(1) for n in needles):
                walls[key] += float(m.group(2))
    return dict(walls)


def read_trace(path: str) -> tuple[dict, list[dict]]:
    meta, spans = {}, []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "meta" in rec:
                meta = rec["meta"]
            else:
                spans.append(rec)
    return meta, spans


def self_ms(spans: list[dict]) -> dict[int, float]:
    """Span id -> self time in ms (duration minus the union of its children,
    which in one thread never overlap)."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"] - child_ns[s["id"]]) / 1e6
            for s in spans}


class _Sums:
    """Self-time and count totals by span name over one set of spans."""

    def __init__(self, spans: list[dict]):
        selfs = self_ms(spans)
        self.ms: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.attr: dict[str, float] = defaultdict(float)
        self.codec_ms: dict[str, float] = defaultdict(float)
        self.codec_pages: Counter = Counter()
        self.errors: Counter = Counter()
        for s in spans:
            name, attrs = s["name"], s.get("attrs") or {}
            self.ms[name] += selfs[s["id"]]
            self.calls[name] += 1
            for k, v in attrs.items():
                if isinstance(v, (int, float)):
                    self.attr[f"{name}.{k}"] += v
            if name == "decode":
                self.codec_ms[attrs["codec"]] += selfs[s["id"]]
                self.codec_pages[attrs["codec"]] += 1
            self.errors.update(attrs.get("errors") or {})

    def layer_ms(self, layer: str) -> float:
        return sum(self.ms[n] for n in LAYERS[layer])


def _per(num: float, den: float, scale: float = 1.0) -> float | None:
    return num / den * scale if den else None


def _unit_rows(s: _Sums, shards: int) -> dict[str, float | None]:
    """Per-unit layer rows; None where these spans hold no such unit."""
    pages = s.calls["decode"]
    rows = {
        "load.ms_per_shard": _per(s.layer_ms("load"), shards),
        "load.mb_per_shard": _per(s.attr["load.read.bytes"], shards, 1e-6),
        "glue.ms_per_shard": _per(s.layer_ms("glue"), shards),
        "decode.payload_kb_per_page": _per(s.attr["decode.bytes"], pages, 1 / 1024),
        "layout.ms_per_page": _per(s.ms["layout"], pages),
        "layout.band_dividers.ms_per_page": _per(s.ms["layout.band_dividers"], pages),
        "layout.gap_boundaries.ms_per_page": _per(s.ms["layout.gap_boundaries"], pages),
        "layout.gap_boundaries.calls_per_page": _per(s.calls["layout.gap_boundaries"], pages),
        "layout.title.ms_per_page": _per(s.ms["layout.title"], pages),
        "layout.regions_per_page": _per(s.attr["layout.regions"], pages),
        "ocr.ms_per_region": _per(s.ms["ocr"], s.calls["ocr"]),
        "explode.ms_per_1k_spans": _per(s.ms["explode"], s.attr["explode.rows"], 1e3),
        "clean.ms_per_1k_regions": _per(s.ms["clean"], s.attr["clean.rows"], 1e3),
        "repack.ms_per_1k_docs": _per(s.ms["repack"], s.attr["repack.rows"], 1e3),
        "correct.ms_per_1k_docs": _per(s.ms["correct"], s.attr["correct.rows"], 1e3),
        "correct.edited_share": _per(s.attr["correct.edited"], s.attr["correct.rows"]),
        "write.ms_per_shard": _per(s.ms["write"], s.calls["write"]),
        "manifest.commit_ms": _per(s.ms["manifest.commit"], s.calls["manifest.commit"]),
    }
    for codec in CODECS:
        rows[f"decode.{codec}.ms_per_page"] = _per(s.codec_ms[codec],
                                                   s.codec_pages[codec])
    return rows


def compute(meta: dict, spans: list[dict]) -> dict:
    """Ledger for one trace: ``metrics`` (name -> value) and ``accounting``
    (layer -> ms per pass, summing to the end-to-end CPU ms per pass)."""
    own = [s for s in spans if not s.get("probe")]
    probe = [s for s in spans if s.get("probe")]
    rounds = max(1, meta.get("rounds", 1))
    shards = meta.get("shards", 0) * rounds
    sums = _Sums(own)
    metrics = _unit_rows(sums, shards)
    fallback = _unit_rows(_Sums(probe), meta.get("probe_shards", 0))
    for name, value in metrics.items():
        if value is None:
            metrics[name] = fallback.get(name)

    accounting = dict.fromkeys(sorted({k.split(".")[0] for k in LAYERS}), 0.0)
    for layer in LAYERS:  # layout.* rows fold into layout
        accounting[layer.split(".")[0]] += sums.layer_ms(layer) / rounds
    kernel_ms = sum(accounting.values())
    e2e_ms = meta.get("e2e_cpu_ms", 0.0)
    accounting["framework"] = e2e_ms - kernel_ms
    metrics["framework.ms_per_shard"] = _per(accounting["framework"],
                                             meta.get("shards", 0))
    metrics["framework.ms_per_doc"] = _per(accounting["framework"],
                                           meta.get("docs", 0))
    traced = meta.get("traced_ms") or []
    unwrapped = meta.get("unwrapped_ms") or []
    if traced and unwrapped:
        metrics["trace.overhead_share"] = (
            sum(traced) / len(traced) / (sum(unwrapped) / len(unwrapped)) - 1)
    for k, v in (meta.get("dataflow") or {}).items():
        metrics[f"dataflow.{k}.wall_s"] = v
    for cls, n in sums.errors.items():
        metrics[f"errors.{cls}"] = n / rounds
    return {"metrics": metrics, "accounting": accounting,
            "e2e_cpu_ms": e2e_ms, "kernel_ms": kernel_ms}


def format_table(meta: dict, ledger: dict) -> str:
    e2e = ledger["e2e_cpu_ms"] or 1.0
    lines = [f"workload {meta.get('workload')}  seed {meta.get('seed')}  "
             f"cpus {meta.get('cpus')}  shards {meta.get('shards')}  "
             f"docs {meta.get('docs')}  pages {meta.get('pages')}  "
             f"traced rounds {meta.get('rounds')}",
             "",
             f"{'layer (ms per pass)':<28}{'ms':>12}{'share':>9}"]
    for layer, ms in sorted(ledger["accounting"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<28}{ms:>12.2f}{ms / e2e:>9.1%}")
    lines.append(f"{'end to end (cpu ms)':<28}{ledger['e2e_cpu_ms']:>12.2f}")
    lines += ["", f"{'metric':<40}{'value':>14}"]
    for name, v in sorted(ledger["metrics"].items()):
        lines.append(f"{name:<40}{'n/a' if v is None else f'{v:.4f}':>14}")
    return "\n".join(lines)


def main(argv: list[str]) -> None:
    if len(argv) != 1:
        sys.exit("usage: python3 perfbench/ledger.py TRACE.jsonl")
    meta, spans = read_trace(argv[0])
    print(format_table(meta, compute(meta, spans)))


if __name__ == "__main__":
    main(sys.argv[1:])
