"""The scripts under `scripts/` run end to end at tiny sizes."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eprsim import cli

REPO = Path(__file__).resolve().parents[1]

# script -> (its tiny-size arguments, the header of the CSV it writes)
SCRIPTS = {
    "run_chsh_scan.py": (
        ["--trials", "2000", "--step", "45", "--seed", "7"],
        ["angle_deg", "mean", "stderr", "target"],
    ),
    "run_discrepancy_scan.py": (
        ["--kmax", "10000", "--seed", "5"],
        ["kind", "theta", "k", "star_discrepancy"],
    ),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_csv(tmp_path, script):
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    args, header = SCRIPTS[script]
    out = tmp_path / "scan.csv"
    argv = [sys.executable, str(REPO / "scripts" / script), *args, "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1
