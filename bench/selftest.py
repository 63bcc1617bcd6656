#!/usr/bin/env python3
"""Self-test of the benchmark harness.  Run from the repository root:

    python3 bench/selftest.py

1. Every workload runs for one operation in each mode, and its result names
   exactly the metrics of BENCHMARK.json, each with its unit.
2. In the traced run, the self times of the spans account for each
   command's wall time.
3. Real reports at small sizes pass their checks, and deliberately corrupted
   copies of them are counted as failed operations, so the checks are not
   vacuous.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import run
from workloads import (
    Command,
    WORKLOADS,
    check_analyze,
    check_chsh,
    check_layers,
    check_poisson,
    check_simulate,
)

ROOT = run.ROOT


def expect(cond, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def run_benchmark(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spans(path: str) -> None:
    """Spans nest inside their parents, and every root span is a CLI call."""
    with open(path) as fh:
        header, *spans = (json.loads(line) for line in fh)
    expect("environment" in header and spans, "spans file has no environment or no spans")
    for i, span in enumerate(spans):
        p = span["parent"]
        if p < 0:
            expect(span["name"] == "cli.main", f"root span {span['name']}")
            continue
        parent = spans[p]
        expect(
            p < i and parent["op"] == span["op"]
            and parent["start"] <= span["start"] <= span["end"] <= parent["end"],
            f"span {i} ({span['name']}) is not inside span {p} ({parent['name']})",
        )


def test_metrics_named_with_units(tmp_dir: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_why = {w["name"]: w["why"] for w in spec["workloads"]}
    expect(declared_why == {w.name: w.why for w in WORKLOADS.values()}, "workload names and reasons")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            spans = os.path.join(tmp_dir, f"spans-{workload}.jsonl")
            result = run_benchmark(workload, trace, *(["--spans", spans] if trace else []))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared, f"{workload} trace={trace}: {got} != {declared}")
            if trace:
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                traced_wall = sum(v for k, v in metrics.items() if k.startswith("cmd.") and k.endswith(".s"))
                gap = metrics["trace.unaccounted_s"]
                expect(
                    0.0 <= gap <= 0.01 * traced_wall,
                    f"{workload}: spans leave {gap} s of {traced_wall} s unaccounted",
                )
                check_spans(spans)
            print(f"PASS {workload} trace={trace}: {len(got)} metrics with units")


class CorruptingCli:
    """Runs the real CLI and edits its JSON report before printing it."""

    def __init__(self, cli, edit):
        self.cli = cli
        self.edit = edit

    def main(self, argv) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        report = json.loads(out.getvalue())
        self.edit(report)
        print(json.dumps(report))
        return code


class RaisingCli:
    def main(self, argv) -> int:
        raise RuntimeError("boom")


def _set(path, value):
    def edit(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return edit


def test_corrupted_reports_fail(cli, tmp_dir: str) -> None:
    universe = os.path.join(tmp_dir, "u.json")
    a, b, c = "1,0,0", "0.6,0.8,0", "0,0,1"
    va, vb = [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]
    trials, k = 20_000, 5_000
    commands = [
        Command(
            "layers",
            ["layers", "--n", "4", "--layers", "20", "--L", "2", "--seed", "3", "--universe", universe],
            lambda r: check_layers(r, pairs=20, path=universe),
        ),
        Command(
            "analyze",
            ["analyze", "--universe", universe, "--a", a, "--b", b, "--c", c, "--witness"],
            lambda r: check_analyze(r, a=va, b=vb),
        ),
        Command(
            "simulate",
            ["simulate", "--universe", universe, "--a", a, "--b", b, "--trials", str(trials), "--seed", "4"],
            lambda r: check_simulate(r, a=va, b=vb, trials=trials),
        ),
        Command(
            "chsh",
            ["chsh", "--angles", "0,90,45,135", "--trials", str(trials), "--n", "4", "--L", "64",
             "--layers", "5", "--seed", "5"],
            lambda r: check_chsh(r, angles=[0.0, 90.0, 45.0, 135.0], trials=trials),
        ),
        Command(
            "poisson",
            ["poisson", "--theta", "1", "--k", str(k), "--labels", "50", "--p1", "0.5", "--p2", "0.5",
             "--seed", "6"],
            lambda r: check_poisson(r, labels=50, k=k, p_ready=0.25),
        ),
    ]
    corruptions = {
        "layers": [_set(["label_count"], lambda n: n - 2)],
        "analyze": [
            _set(["pair_expectation"], lambda x: -x),
            _set(["conditional_bias", "A"], 1e-6),
            _set(["witness_bias", "B"], 0.0),
            _set(["tv_cond_indep"], 1e-3),
        ],
        "simulate": [_set(["mean"], lambda x: -x), _set(["exact_target"], 0.0)],
        "chsh": [_set(["components", 0, "mean"], lambda x: -x), _set(["s_value"], 2.0)],
        "poisson": [
            _set(["extreme_upper"], lambda x: 3.0 * x),
            _set(["chi_square_gated"], 1e6),
            _set(["acceptance_rate"], 0.3),
        ],
    }
    for cmd in commands:
        result = run.run_command(cli, cmd)
        expect(not result["problems"], f"correct {cmd.name} report rejected: {result['problems']}")
        for i, edit in enumerate(corruptions[cmd.name]):
            bad = run.run_command(CorruptingCli(cli, edit), cmd)
            expect(bad["problems"], f"corruption {i} of {cmd.name} passed its check")
            ops = [{"commands": [result]}, {"commands": [bad]}]
            expect(run.count_failed(ops) == 1, "a corrupted operation is not counted as failed")
        print(f"PASS {cmd.name}: real report accepted, {len(corruptions[cmd.name])} corruptions rejected")

    nonzero = run.run_command(cli, Command("simulate", ["simulate", "--a", a, "--b", b, "--seed", "1"], commands[2].check))
    expect(nonzero["problems"], "a nonzero exit code was not counted")
    raised = run.run_command(RaisingCli(), commands[0])
    expect(raised["problems"], "a raising command was not counted")
    print("PASS nonzero exit and exceptions count as failures")


def main() -> int:
    cli = run.import_cli()
    with tempfile.TemporaryDirectory(prefix=run.TMP_PREFIX, dir=ROOT) as tmp_dir:
        test_corrupted_reports_fail(cli, tmp_dir)
        test_metrics_named_with_units(tmp_dir)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
