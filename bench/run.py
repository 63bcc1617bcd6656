#!/usr/bin/env python3
"""eprsim benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload mc-chsh --seed 1 --seconds 30 --trace 0

One single-threaded process runs one operation after another for
`--seconds` (at least one operation).  An operation is one or more
in-process `eprsim.cli.main(argv)` calls whose JSON reports are checked
(see workloads.py); it fails if a call raises, exits nonzero or fails a
check.  The program is imported from `src/` next to this directory.

With `--trace 0` the last stdout line reports the end-to-end metrics, with
times in nominal seconds (see REF_NOMINAL_S); the lines above it give the
environment and the raw wall times, each command's median among them.
With `--trace 1` every other operation is traced (see tracer.py) and the
last line reports per-layer metrics, medians over the traced operations; a
command's tracing overhead is its median traced wall time minus its median
untraced wall time in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer
from workloads import COMMANDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TMP_PREFIX = ".bench-tmp-"
SETUP_PROBES = 3

# The speed of a shared host drifts by a quarter and more within minutes: on
# a 2-core Xeon VM a fixed pure-Python loop took 0.29 s in one minute and
# 0.48 s a few minutes later, with no steal time.  Timed end-to-end metrics are therefore reported
# in nominal seconds, wall seconds times REF_NOMINAL_S over the time of that
# loop (reference_s) measured in the same run.  Raw wall times are printed
# above the result.
REF_LOOPS = 1_000_000
REF_NOMINAL_S = 0.05
REF_EVERY_S = 1.0

# A fresh interpreter imports the CLI (numpy and scipy with it) and makes and
# removes a temp dir, then prints the wall-clock time at which it is ready.
SETUP_PROBE = (
    "import os, sys, tempfile, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import eprsim.cli\n"
    f"os.rmdir(tempfile.mkdtemp(prefix={TMP_PREFIX!r}, dir=sys.argv[2]))\n"
    "print(repr(time.time()))\n"
)

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
}


def _layer(qualname: str, *stats: str) -> dict:
    units = {"calls": "count", "s": "s", "self_s": "s"}
    return {f"{qualname}.{stat}": units[stat] for stat in stats}


PER_LAYER = {
    **_layer("sampling.run_experiment", "calls", "s", "self_s"),
    **_layer("sampling.chsh", "s"),
    "sampling.trials_per_s": "1/s",
    **_layer("layers.build_universe", "s", "self_s"),
    **_layer("layers.sample_layer_pair", "calls", "s"),
    **_layer("layers.save_universe", "s"),
    "layers.universe_bytes": "bytes",
    **_layer("layers.load_universe", "s"),
    **_layer("analysis.conditional_outcome_bias", "calls", "s"),
    **_layer("analysis.dependence_report", "s"),
    **_layer("analysis.pair_expectation", "s"),
    **_layer("emission.discrepancy_stats", "s", "self_s"),
    **_layer("emission.detector_gate", "s", "self_s"),
    **_layer("emission.star_discrepancy", "calls", "s"),
    **_layer("emission.generate_trace", "calls", "s"),
    **_layer("emission.extreme_discrepancy", "s"),
    "emission.points": "count",
    **_layer("measure.build_measure", "calls", "s"),
    **_layer("splines.basis_matrix", "calls", "s"),
    **_layer("splines.clipped_weight_matrix", "calls", "s"),
    **_layer("cli.main", "self_s"),
    "cli.report_bytes": "bytes",
    **{f"cmd.{c}.s": "s" for c in COMMANDS},
    **{f"cmd.{c}.overhead_s": "s" for c in COMMANDS},
    "trace.unaccounted_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="workload seed; operation seeds derive from it")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time; 0 runs one operation")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="with --trace 1, also write every span as JSON lines here")
    return p.parse_args(argv)


def import_cli():
    """Import the CLI from this checkout's src/, never from elsewhere."""
    if not (SRC / "eprsim" / "cli.py").is_file():
        raise SystemExit(f"bench: no eprsim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import eprsim.cli

    if Path(eprsim.cli.__file__).resolve().parent != SRC / "eprsim":
        raise SystemExit(f"bench: eprsim imported from {eprsim.cli.__file__}, not {SRC}")
    return eprsim.cli


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    commit = dirty = None
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i % 7
    return time.perf_counter() - start


def measure_setup() -> list[tuple[float, float]]:
    """Per fresh interpreter: (seconds from process start to ready, reference
    seconds averaged over one run just before and one just after)."""
    probes = []
    for _ in range(SETUP_PROBES):
        before = reference_s()
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(ROOT)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ready = float(proc.stdout.strip().splitlines()[-1]) - start
        probes.append((ready, (before + reference_s()) / 2))
    return probes


def run_command(cli, cmd) -> dict:
    """One in-process CLI call: wall time, stdout size and the problems found."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd.argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception as exc:  # an operation that raises is counted, not fatal
        code = None
        problems.append(f"{cmd.name}: raised {exc!r}")
    wall = time.perf_counter() - start
    text = out.getvalue()
    if code != 0 and not problems:
        problems.append(f"{cmd.name}: exit code {code!r}: {err.getvalue().strip()[:300]}")
    if not problems:
        try:
            problems = cmd.check(json.loads(text))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{cmd.name}: unreadable report: {exc!r}")
    return {"name": cmd.name, "wall": wall, "bytes": len(text.encode()), "problems": problems}


def run_loop(cli, workload, args, tmp_dir, tracer):
    """Closed loop: one operation after another until the time is spent.

    Returns the operations and the reference times taken between them,
    about every REF_EVERY_S seconds and once after the last operation."""
    rng = random.Random(args.seed)
    ops = []
    refs = [reference_s()]
    last_ref = time.perf_counter()
    deadline = time.perf_counter() + args.seconds
    while True:
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_s())
            last_ref = time.perf_counter()
        index = len(ops)
        commands = workload.commands(rng, tmp_dir)
        # odd operations are traced, so the cold first one is never traced
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.op = index
            tracer.install()
        try:
            results = [run_command(cli, cmd) for cmd in commands]
        finally:
            if traced:
                tracer.uninstall()
        universe_bytes = 0
        for name in os.listdir(tmp_dir):
            path = os.path.join(tmp_dir, name)
            universe_bytes += os.path.getsize(path)
            os.remove(path)
        ops.append({"traced": traced, "commands": results, "universe_bytes": universe_bytes})
        for problem in (p for r in results for p in r["problems"]):
            print(f"bench: op {index} failed: {problem}", file=sys.stderr)
        done = time.perf_counter() >= deadline
        if done and (tracer is None or len(ops) >= 2):
            refs.append(reference_s())
            return ops, refs


def count_failed(ops) -> int:
    return sum(1 for op in ops if any(r["problems"] for r in op["commands"]))


def _op_s(op) -> float:
    return sum(r["wall"] for r in op["commands"])


def _walls(ops, name):
    return [r["wall"] for op in ops for r in op["commands"] if r["name"] == name]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(ops, refs, probes) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(ready * REF_NOMINAL_S / ref for ready, ref in probes),
        "op_s": statistics.median(_op_s(op) for op in ops) * REF_NOMINAL_S / statistics.median(refs),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def wall_clock_lines(ops, refs, probes) -> list[str]:
    """Raw wall times for people reading the run (not part of the result)."""
    lines = [f"reference_s {statistics.median(refs):.6f} s (median of {len(refs)}; nominal {REF_NOMINAL_S})"]
    if probes:
        setup = statistics.median(ready for ready, _ in probes)
        lines.append(f"setup_wall_s {setup:.6f} s (median of {len(probes)})")
    for name in COMMANDS:
        walls = _walls(ops, name)
        if not walls:
            continue
        lines.append(f"{name}_s {statistics.median(walls):.6f} s (median of {len(walls)})")
        # a p90 needs at least ten samples beyond it
        if len(walls) >= 100:
            p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1]
            lines.append(f"{name}_s_p90 {p90:.6f} s (of {len(walls)})")
    failed = count_failed(ops)
    lines.append(f"fail_rate {failed / len(ops):.6f} ratio ({failed} of {len(ops)} operations)")
    return lines


def per_layer_metrics(ops, tracer) -> dict:
    table = tracer.per_op()
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    rows = [table.get(i, {}) for i in traced]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}

    def stat(row, qualname, key):
        return row.get(qualname, zero)[key]

    def trials_per_s(row):
        seconds = stat(row, "sampling.run_experiment", "s")
        return stat(row, "sampling.run_experiment", "count") / seconds if seconds else 0.0

    derived = {
        "sampling.trials_per_s": [trials_per_s(r) for r in rows],
        "emission.points": [
            stat(r, "emission.star_discrepancy", "count")
            + stat(r, "emission.extreme_discrepancy", "count")
            for r in rows
        ],
        "layers.universe_bytes": [ops[i]["universe_bytes"] for i in traced],
        "cli.report_bytes": [sum(c["bytes"] for c in ops[i]["commands"]) for i in traced],
        "trace.unaccounted_s": [
            _op_s(ops[i]) - sum(v["self_s"] for v in row.values())
            for i, row in zip(traced, rows)
        ],
    }
    traced_ops = [ops[i] for i in traced]
    plain_ops = [op for op in ops if not op["traced"]]
    for name in COMMANDS:
        on = _walls(traced_ops, name)
        off = _walls(plain_ops, name)
        derived[f"cmd.{name}.s"] = [_median(on)]
        derived[f"cmd.{name}.overhead_s"] = [_median(on) - _median(off) if on and off else 0.0]

    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            metrics[name] = _median(derived[name])
        else:
            qualname, key = name.rsplit(".", 1)
            metrics[name] = _median([stat(r, qualname, key) for r in rows])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    env = environment(args)
    probes = [] if args.trace else measure_setup()
    tracer = Tracer() if args.trace else None

    with tempfile.TemporaryDirectory(prefix=TMP_PREFIX, dir=ROOT) as tmp_dir:
        ops, refs = run_loop(cli, workload, args, tmp_dir, tracer)

    failed = count_failed(ops)
    if tracer is not None:
        values, units = per_layer_metrics(ops, tracer), PER_LAYER
        env["trace_missing"] = tracer.missing
        if tracer.missing:
            print(f"bench: traced functions not found: {tracer.missing}", file=sys.stderr)
        if args.spans:
            with open(args.spans, "w") as fh:
                fh.write(json.dumps({"environment": env}) + "\n")
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_dict()) + "\n")
    else:
        values, units = end_to_end_metrics(ops, refs, probes), END_TO_END

    print("environment " + json.dumps(env, sort_keys=True))
    for line in wall_clock_lines(ops, refs, probes):
        print(line)
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
