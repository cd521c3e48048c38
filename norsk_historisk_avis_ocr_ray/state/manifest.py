"""Partition manifest: the checkpoint store for resumable runs.

The reference's resume mechanism is a done-marker file written *before* its
correction pass finishes (``ocr.py:46-47``; marker-ordering bug at
``claude_vision_engine.py:349-368``). Here the unit is an input shard and the
commit protocol is: write the shard's output parquet to a temp path → rename
into place (atomic on one filesystem) → append the manifest line with lineage
metrics. A shard is only considered done if its manifest line exists, and the
manifest line is only written after the output is durable — a crash between
the two re-processes the shard (idempotent: the rename replaces the output).
A crash mid-append leaves a last line with no newline: those bytes are not a
commit (their shard re-runs), and the next ``commit`` cuts them off first.

Each manifest line is also the shard's **lineage record**: rows in/out, span
and error counts, wall time — the Ray-native replacement for the reference's
``detection_info.txt`` + console totals.
"""

from __future__ import annotations

import json
import os
import time


class Manifest:
    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def committed(self) -> dict[str, dict]:
        done: dict[str, dict] = {}
        if not os.path.exists(self.path):
            return done
        with open(self.path, "rb") as f:
            data = f.read()
        # bytes after the last newline are an append cut short: uncommitted
        for line in data[:data.rfind(b"\n") + 1].splitlines():
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            done[rec["shard"]] = rec
        return done

    def commit(self, shard: str, lineage: dict) -> None:
        rec = {"shard": shard, "ts": time.time(), **lineage}
        with open(self.path, "a+b") as f:
            end = f.seek(0, os.SEEK_END)
            if end:
                f.seek(end - 1)
                if f.read(1) != b"\n":  # a torn last line: cut it off first
                    f.seek(0)
                    f.truncate(f.read().rfind(b"\n") + 1)
            f.write(json.dumps(rec).encode() + b"\n")
            f.flush()
            os.fsync(f.fileno())

    def pending(self, shards: list[str]) -> list[str]:
        done = self.committed()
        return [s for s in shards if s not in done]

