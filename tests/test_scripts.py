"""The scripts under `scripts/` run end to end at tiny sizes."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eprsim import cli, emission

from oracles import one_sided_discrepancies

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


def _run_script(script, args, out, code=0):
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    argv = [sys.executable, str(REPO / "scripts" / script), *args, "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == code, proc.stderr
    return proc


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_csv(tmp_path, script):
    args, header = SCRIPTS[script]
    out = tmp_path / "scan.csv"
    _run_script(script, args, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_negative_seed_exits_2_naming_it(tmp_path, script):
    # as the CLI does: one error line naming the flag, no traceback, no CSV
    out = tmp_path / "scan.csv"
    proc = _run_script(script, [*SCRIPTS[script][0], "--seed", "-1"], out, code=2)
    assert proc.stderr == "error: --seed must be >= 0 (got -1)\n"
    assert not out.exists()


# a bad value of each script's flags, and the one error line it exits 2 with
BAD_FLAGS = [
    ("run_chsh_scan.py", ["--trials", "0"], "--trials must be >= 1 (got 0)"),
    ("run_chsh_scan.py", ["--step", "0"], "--step must be finite and positive degrees (got 0.0)"),
    ("run_chsh_scan.py", ["--n", "2"], "--n must be >= 4 (got 2)"),
    (
        "run_discrepancy_scan.py",
        ["--kmax", "0"],
        "--kmax must be >= 10000 (got 0): the slope fit needs the prefix sizes 1000 and 10000",
    ),
    (
        "run_discrepancy_scan.py",
        ["--kmax", "500"],
        "--kmax must be >= 10000 (got 500): the slope fit needs the prefix sizes 1000 and 10000",
    ),
    ("run_discrepancy_scan.py", ["--thetas", "0"], "--thetas: '0' is not a finite positive mean wait"),
    # sizes nothing could hold, refused before anything is allocated: the
    # angle count 180 / step + 1 and the trace of --kmax floats
    (
        "run_chsh_scan.py",
        ["--step", "1e-300", "--trials", "10"],
        "--step must be >= 0.0001 degrees (got 1e-300): the scan holds 180 / step + 1 angles "
        "at once",
    ),
    (
        "run_chsh_scan.py",
        ["--step", "9.99e-05", "--trials", "10"],
        "--step must be >= 0.0001 degrees (got 9.99e-05): the scan holds 180 / step + 1 angles "
        "at once",
    ),
    (
        "run_discrepancy_scan.py",
        ["--kmax", "10000000000000"],
        "--kmax must be <= 134217728 (got 10000000000000): its largest array would pass the "
        "1 GiB budget",
    ),
    (
        "run_discrepancy_scan.py",
        ["--kmax", "134217729"],
        "--kmax must be <= 134217728 (got 134217729): its largest array would pass the 1 GiB "
        "budget",
    ),
]


@pytest.mark.parametrize("script, args, message", BAD_FLAGS)
def test_bad_flag_exits_2_naming_it(tmp_path, script, args, message):
    # checked before the CSV is opened: no traceback and no CSV left behind
    out = tmp_path / "scan.csv"
    proc = _run_script(script, [*args, "--seed", "1"], out, code=2)
    assert proc.stderr == f"error: {message}\n"
    assert not out.exists()


def _prefix_scan_csv(kmax: int, seed: int) -> bytes:
    """The discrepancy scan's CSV at the default thetas, from the star
    discrepancy of each unsorted prefix, each sorted in a copy."""
    ks = [10**e for e in range(3, 10) if 10**e <= kmax]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = []
    for theta in (0.5, 1.0, 2.0):
        fracs = emission.generate_trace(theta, kmax, rng)
        rows += [("poisson", theta, k, max(one_sided_discrepancies(fracs[:k]))) for k in ks]
    uniform = rng.random(kmax)
    rows += [("uniform", float("nan"), k, max(one_sided_discrepancies(uniform[:k]))) for k in ks]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["kind", "theta", "k", "star_discrepancy"])
    writer.writerows(rows)
    return text.getvalue().encode()


@pytest.mark.parametrize("kmax", [10_000, 25_000])
def test_discrepancy_scan_is_the_prefix_by_prefix_scan(tmp_path, kmax):
    # the script sorts each trace in place, a prefix at a time; its CSV is
    # byte for byte that of sorting a copy of every prefix
    out = tmp_path / "scan.csv"
    _run_script("run_discrepancy_scan.py", ["--kmax", str(kmax), "--seed", "5"], out)
    assert out.read_bytes() == _prefix_scan_csv(kmax, 5)
