"""Golden CLI outputs at small sizes, pinning the seeded streams.

The fixtures in `tests/golden/` were written by this module run as a script:

    PYTHONPATH=src python tests/test_golden.py

Universe files (`*.universe`, binary `layer-universe/3`) and the `layers`,
`simulate`, `chsh`, `splines`, `verify` and `poisson` reports must match byte
for byte (reports with the path-dependent `universe` keys removed); `analyze`
reports hold sums whose order may change, so they match within 1e-12 for
`pair_expectation` and 1e-15 for every other number.  Regenerate only for a
deliberate stream, report or file change, and record it.  Every report
fixture is strict JSON: no NaN or Infinity.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eprsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

UNIVERSES = {
    "u1.universe": ["layers", "--n", "4", "--layers", "5", "--L", "3", "--seed", "7"],
    "u2.universe": [
        "layers", "--n", "5", "--layers", "5", "--L", "2", "--seed", "8", "--tie-weights"
    ],
}

# name -> argv; "{u1}"/"{u2}" stand for the universe files above
REPORTS = {
    "layers_u1": UNIVERSES["u1.universe"] + ["--universe", "{u1}"],
    "layers_u2": UNIVERSES["u2.universe"] + ["--universe", "{u2}"],
    "analyze_u1": [
        "analyze", "--universe", "{u1}", "--a", "1,0,0", "--b", "0.6,0.8,0", "--c", "0,0,1",
        "--witness",
    ],
    "analyze_u2": [
        "analyze", "--universe", "{u2}", "--a", "0.6,0.8,0", "--b", "0,0.28,0.96",
        "--c", "1,0,0", "--witness",
    ],
    "simulate_u1": [
        "simulate", "--universe", "{u1}", "--a", "1,0,0", "--b", "0.6,0.8,0",
        "--trials", "20000", "--seed", "3",
    ],
    "simulate_fresh": [
        "simulate", "--n", "4", "--layers", "5", "--L", "3", "--angle", "45",
        "--trials", "20000", "--seed", "4",
    ],
    "chsh_fresh": [
        "chsh", "--angles", "0,90,45,135", "--n", "4", "--layers", "5", "--L", "64",
        "--trials", "20000", "--seed", "5",
    ],
    "chsh_u2": [
        "chsh", "--universe", "{u2}", "--angles", "0,90,45,135", "--trials", "20000",
        "--seed", "6",
    ],
    "splines_n5": ["splines", "--n", "5", "--grid", "21"],
    "verify_edge": [
        "verify", "--n", "4", "--a", "0.5,-0.5,0.7071067811865476", "--b=-0.0,0,-1",
        "--normalize", "--genuine-variant",
    ],
    "poisson_small": [
        "poisson", "--theta", "1", "--k", "5000", "--labels", "5", "--seed", "10",
        "--p1", "0.5", "--p2", "0.5",
    ],
    # k spans several emission chunks and ends inside a partial one
    "poisson_chunks": [
        "poisson", "--theta", "0.37", "--k", "200003", "--labels", "7", "--p1", "0.9",
        "--p2", "0.9", "--seed", "11",
    ],
}

PAIR_EXPECTATION_TOL = 1e-12
ANALYZE_TOL = 1e-15


def _run(argv: list[str], workdir: Path) -> dict:
    """Run one CLI command (universe files in `workdir`) and return its report
    with the path-dependent `universe` keys removed."""
    paths = {"{u1}": str(workdir / "u1.universe"), "{u2}": str(workdir / "u2.universe")}
    out = workdir / "report.json"
    code = cli.main([paths.get(arg, arg) for arg in argv] + ["--out", str(out)])
    assert code == 0, argv
    report = json.loads(out.read_text())
    report.pop("universe", None)
    report["config"].pop("universe", None)
    return report


def _dump(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_universes(workdir: Path) -> None:
    for name, argv in UNIVERSES.items():
        _run(argv + ["--universe", str(workdir / name)], workdir)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _write_universes(path)
    return path


@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_universe_file_bytes(workdir, name):
    assert (workdir / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(k for k in REPORTS if not k.startswith("analyze")))
def test_report_bytes(workdir, name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert _dump(_run(REPORTS[name], workdir)) == expected


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_timings_change_no_report_byte(workdir, tmp_path, name):
    """--timings writes stage timings to its own file; the report's bytes are
    those of the same run without it, on stdout and in --out alike."""
    paths = {"{u1}": str(workdir / "u1.universe"), "{u2}": str(workdir / "u2.universe")}
    argv = [paths.get(arg, arg) for arg in REPORTS[name]]
    timings = tmp_path / "timings.json"
    for out in ([], ["--out", str(tmp_path / "report.json")]):
        reports = []
        for extra in ([], ["--timings", str(timings)]):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert cli.main(argv + out + extra) == 0
            reports.append(buffer.getvalue() if not out else Path(out[1]).read_bytes())
        assert reports[0] == reports[1]
    doc = json.loads(timings.read_text())
    assert set(doc) == {"python", "numpy", "cpu_count", "stages"}
    assert doc["numpy"] == np.__version__
    command = f"cmd.{argv[0]}"
    assert command in doc["stages"]
    for stage in doc["stages"].values():
        assert stage["calls"] >= 1
        assert 0.0 <= stage["wall_s"] <= doc["stages"][command]["wall_s"]
        assert stage["peak_rss_mb"] > 0.0
    if name == "simulate_u1":
        assert {"layers.load_universe", "sampling.run_experiment"} <= set(doc["stages"])
    if name.startswith("splines"):
        # the residual grid and every error field come from one library call
        assert doc["stages"]["splines.identity_errors"]["calls"] == 1
    if name.startswith("analyze"):
        # both biases of both sides come from one pass per side
        assert doc["stages"]["analysis.outcome_biases"]["calls"] == 1
        # the (a, b) and (a, c) measures are built once each
        assert doc["stages"]["measure.build_measure"]["calls"] == 2
        assert "analysis.conditional_outcome_bias" not in doc["stages"]


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_timings_path_exits_2_naming_it(tmp_path, capsys, target):
    path = tmp_path / "absent" / "t.json" if target == "missing_directory" else tmp_path
    out = tmp_path / "report.json"
    code = cli.main(REPORTS["verify_edge"] + ["--out", str(out), "--timings", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and str(path) in captured.err
    assert not out.exists()


def _run_fresh(code: str, *args: str) -> None:
    """Run `code` in a fresh interpreter that imports eprsim from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_plain_run_imports_no_timer():
    code = (
        "import sys, eprsim.cli\n"
        "assert eprsim.cli.main(sys.argv[1:]) == 0\n"
        "assert 'eprsim.timings' not in sys.modules\n"
    )
    _run_fresh(code, *REPORTS["verify_edge"])


def test_import_leaves_numpy_random_unloaded():
    # numpy loads np.random on first use; a module-level reference would add
    # its import to every command's cold start
    _run_fresh("import sys, eprsim.cli\nassert 'numpy.random' not in sys.modules\n")


def test_only_poisson_imports_scipy(tmp_path):
    """eprsim loads with numpy and the standard library only: no golden
    command but poisson imports any scipy module, and poisson imports
    scipy.special for its quantile, never scipy.stats."""
    for name in UNIVERSES:
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    paths = {"{u1}": str(tmp_path / "u1.universe"), "{u2}": str(tmp_path / "u2.universe")}
    out = ["--out", str(tmp_path / "report.json")]
    runs = {
        name: [paths.get(arg, arg) for arg in argv] + out
        for name, argv in REPORTS.items()
        if not name.startswith("poisson")
    }
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import eprsim.cli\n"
        "assert scipy_modules() == [], scipy_modules()[:5]\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    assert eprsim.cli.main(argv) == 0, name\n"
        "    assert scipy_modules() == [], (name, scipy_modules()[:5])\n"
        "assert eprsim.cli.main(json.loads(sys.argv[2])) == 0\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    _run_fresh(code, json.dumps(runs), json.dumps(REPORTS["poisson_small"] + out))


def _assert_close(got, expected, tol, where=""):
    if isinstance(expected, dict):
        assert sorted(got) == sorted(expected), where
        for key in expected:
            field_tol = PAIR_EXPECTATION_TOL if key == "pair_expectation" else tol
            _assert_close(got[key], expected[key], field_tol, f"{where}.{key}")
    elif isinstance(expected, float):
        assert isinstance(got, float) and math.isclose(got, expected, rel_tol=0.0, abs_tol=tol), (
            where,
            got,
            expected,
        )
    else:
        assert got == expected, where


@pytest.mark.parametrize("name", sorted(k for k in REPORTS if k.startswith("analyze")))
def test_analyze_report_numbers(workdir, name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    _assert_close(_run(REPORTS[name], workdir), expected, ANALYZE_TOL)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_fixture_is_strict_json(path):
    json.loads(path.read_text(), parse_constant=_reject_constant)


def test_fixture_set_is_complete():
    expected = {*UNIVERSES, *(f"{name}.json" for name in REPORTS)}
    assert {path.name for path in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _write_universes(GOLDEN)
    for report_name, report_argv in REPORTS.items():
        (GOLDEN / f"{report_name}.json").write_text(_dump(_run(report_argv, GOLDEN)))
    (GOLDEN / "report.json").unlink()
    print(f"wrote {len(UNIVERSES) + len(REPORTS)} fixtures to {GOLDEN}", file=sys.stderr)
