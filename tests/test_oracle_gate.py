"""The oracle gate of the two extraction queries, at two CPU counts.

``tools/check_oracle.py`` runs ``extract_docs`` (text-only spans) and
``ocr_extract`` (pages, layout, OCR, media resolution and correction)
beside their DuckDB oracles in a fresh Ray session. One CPU and eight give
different read block and bucket counts, so the same two ``ok`` lines at
both pin that no row depends on them.
"""

import os
import subprocess
import sys

import pytest

SF_DIR = "/root/testdata/sf0.01"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="no sf0.01 test data")
@pytest.mark.parametrize("cpus", ["1", "8"])
def test_extraction_queries_match_their_oracles(cpus):
    proc = subprocess.run(
        [sys.executable, "tools/check_oracle.py", SF_DIR, "extract_docs",
         "ocr_extract"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "NHAO_GATE_CPUS": cpus}, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    ok = [line.split()[1] for line in proc.stdout.splitlines()
          if line.startswith("ok")]
    assert ok == ["extract_docs:", "ocr_extract:"], proc.stdout
