"""The benchmark harness's own self-test passes on this tree.

`bench/selftest.py` runs every workload for one operation, traced and
untraced, checks that spans nest inside their parents and account for each
command's wall time, and that corrupted reports count as failed operations.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        capture_output=True, text=True, cwd=REPO, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
