"""Command-line harness tying the modules into reproducible experiments.

Subcommands: splines, verify, layers, analyze, simulate, chsh, poisson.
Reports are JSON (stdout or --out) with optional CSV side files; every
report embeds the effective configuration and seeds so identical invocations
produce byte-identical output.  Exit codes: 0 ok, 2 validation error
(including a file path that cannot be read or written), 1 internal error.

`main` builds only the parser of the command its first argument names; the
full parser, which words the top-level errors, parses when that argument is
no command or an argument is left over.  `main` then refuses two path flags
that name one file, resolves the flags, runs the command, which returns its
report fields and CSV table (header, rows) or None, and writes both.  With
`--timings FILE` it also writes each stage's wall time and peak RSS to FILE
(see `timings`); the report is the same.  The stages are each library call
the command makes, the command as `cmd.<name>` from `main`'s first reading,
and within it the flag parse as `cli.parse`, which ends before `timings` is
imported.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import dependence_report, outcome_biases, pair_expectation
from .config import (
    MINIMUMS,
    RUN_DEFAULTS,
    ConfigError,
    check_budget,
    check_size,
    load_config,
    parse_setting,
)
from .emission import (
    chi_square_quantile,
    detector_gate,
    fit_rate,
    generate_trace,
    prefix_discrepancies,
    uniform_chi_square,
)
from .layers import (
    UNIVERSE_SCHEMA,
    build_universe,
    layer_count_digits,
    load_universe,
    save_universe,
)
from .measure import (
    build_measure,
    gap_variant,
    pair_integral,
    setting_from_angle,
    theta_hat,
    total_mass,
)
from .sampling import run_experiment
from .sampling import chsh as run_chsh
from .splines import SplineSystem, identity_errors
from .streams import stream

REPORT_SCHEMA = "report/1"

# the setting flags of each command, in the order a config file's `settings` fill them
SETTING_FLAGS = {"verify": ("a", "b"), "analyze": ("a", "b", "c"), "simulate": ("a", "b"),
                 "chsh": ("a", "a2", "b", "b2")}


def cmd_splines(args):
    sys_ = SplineSystem(args.n)
    grid = np.linspace(0.0, 1.0, args.grid)
    residual, errors = identity_errors(sys_, grid)
    fields = {"n": args.n, "grid": args.grid, **errors}
    rows = (
        [repr(float(x)), repr(float(y)), repr(float(residual[iy, ix]))]
        for iy, y in enumerate(grid)
        for ix, x in enumerate(grid)
    )
    return fields, (["x", "y", "residual"], rows)


def cmd_verify(args):
    mu = build_measure(args.settings["a"], args.settings["b"], args.n)
    integral = pair_integral(mu)
    expected = -float(np.dot(mu.a, mu.b))
    fields = {
        "n": args.n,
        "a": [float(x) for x in mu.a],
        "b": [float(x) for x in mu.b],
        "mass": total_mass(mu),
        "theta_hat": theta_hat(mu),
        "pair_integral": integral,
        "expected": expected,
        "abs_error": abs(integral - expected),
    }
    if args.genuine_variant:
        fields["genuine_variant"] = gap_variant(mu.a, mu.b)
    return fields, None


def cmd_layers(args):
    universe = build_universe(
        args.n, args.L, args.layers, stream(args.seed), tie_weights=args.tie_weights
    )
    save_universe(universe, args.universe)
    fields = {
        "n": args.n,
        "interval_count": args.L,
        "pair_count": args.layers,
        "label_count": universe.label_count,
        "published_layer_count_digits": layer_count_digits(args.n),
        "universe": str(args.universe),
    }
    return fields, None


def cmd_analyze(args):
    universe = load_universe(args.universe)
    mu_ab, mu_ac = (build_measure(args.settings["a"], args.settings[x], universe.n) for x in "bc")
    fields = dependence_report(universe, mu_ab, mu_ac)
    fields["pair_expectation"] = pair_expectation(universe, mu_ab)
    biases = outcome_biases(universe, mu_ab)
    fields["conditional_bias"] = {side: pair[0] for side, pair in biases.items()}
    if args.witness:
        fields["witness_bias"] = {side: pair[1] for side, pair in biases.items()}
    return fields, None


# the run sizes a --universe file fills, each with its field there
UNIVERSE_SIZES = {"n": "n", "L": "interval_count", "layers": "pair_count"}


def _resolve_run_params(args) -> None:
    """Merge and check a run's inputs, each where it enters.  Every setting
    text is parsed, once, into `args.settings`: the --config file's, then
    the flags', which win; an error names its flag or file line.  Unset
    flags fill from the file's keys, which `load_config` checked, once the
    flags are checked.  A simulate or chsh --universe file is read and
    validated, each size given must agree with it, and it fills n, L and
    layers; the rest fall back to RUN_DEFAULTS.  Last, an --angle or
    --angles run takes every setting from its degrees, and no setting text
    is reported."""
    params = vars(args)
    cfg = load_config(args.config) if params.get("config") else {}
    names = SETTING_FLAGS.get(args.command, ())
    texts = [(f"--{name}", name, params[name]) for name in names]
    flagged = [name for name in names if params[name] is not None]
    settings = cfg.pop("settings", None)
    if settings is not None:
        if len(settings) != len(names):
            raise ConfigError(
                f"settings: {args.command} takes {len(names)} ({', '.join(names)}), "
                f"got {len(settings)}"
            )
        source = f"{args.config}:{cfg.pop('settings_line')}: key 'settings'"
        texts[:0] = [(source, *item) for item in zip(names, settings)]
        cfg.update(zip(names, settings))
    args.settings = {}
    for source, name, text in texts:
        try:
            if text is not None:
                args.settings[name] = parse_setting(text, normalize=args.normalize)
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    for key in MINIMUMS:
        if params.get(key) is not None:
            check_size(key, params[key])
    for key, value in cfg.items():
        if params[key] is None:
            params[key] = value
    # simulate and chsh, the commands with --config, read --universe (layers writes it)
    if "config" in params and params["universe"] is not None:
        universe = load_universe(args.universe)
        for key, field in UNIVERSE_SIZES.items():
            given, value = params[key], getattr(universe, field)
            if given not in (None, value):
                raise ConfigError(
                    f"--{key} {given} disagrees with {args.universe}, which has {key} = {value}"
                )
            params[key] = value
    for key, default in RUN_DEFAULTS.items():
        if key in params and params[key] is None:
            if default is None:
                raise ConfigError(f"{key} must be given (flag --{key} or config key)")
            params[key] = default
    check_budget(args.command, params)
    degrees = params.get("angle", params.get("angles"))
    if degrees is None:
        return
    flag = "--angle" if args.command == "simulate" else "--angles"
    if flagged:
        raise ConfigError(f"{flag} and --{flagged[0]} cannot be given together")
    degrees = [0.0, degrees] if flag == "--angle" else degrees.split(",")
    if len(degrees) != len(names):
        raise ConfigError("--angles needs four comma-separated degrees: a,a',b,b'")
    args.settings = {}
    for name, text in zip(names, degrees):
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{flag}: {text!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite degrees (got {text})")
        args.settings[name] = setting_from_angle(value)
    params.update(dict.fromkeys(names))


def cmd_simulate(args):
    if len(args.settings) < 2:
        raise ConfigError("provide --a and --b, --angle, or two settings in --config")
    a, b = args.settings["a"], args.settings["b"]
    batch_means: list[float] = []
    estimate = run_experiment(args.n, a, b, args.trials, seed=args.seed, batch_means=batch_means)
    fields = {
        "a": [float(x) for x in a],
        "b": [float(x) for x in b],
        **estimate,
        "abs_error": abs(estimate["mean"] - estimate["exact_target"]),
    }
    return fields, (["batch", "mean"], ([i, repr(m)] for i, m in enumerate(batch_means)))


def cmd_chsh(args):
    if len(args.settings) < 4:
        raise ConfigError(
            "provide --angles, all of --a --a2 --b --b2, or four settings in --config"
        )
    settings = (args.settings[name] for name in SETTING_FLAGS["chsh"])
    return run_chsh(args.n, *settings, args.trials, seed=args.seed), None


def cmd_poisson(args):
    # checked before the stream is touched
    if not (math.isfinite(args.theta) and args.theta > 0.0):
        raise ConfigError(f"--theta must be finite and positive (got {args.theta})")
    for flag in ("p1", "p2"):
        p = getattr(args, flag)
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"--{flag} must lie in (0, 1] (got {p})")
    rng = stream(args.seed)
    try:
        fracs = generate_trace(args.theta, args.k, rng)
    except OverflowError as exc:
        raise ConfigError(
            f"--theta {args.theta} and --k {args.k} carry the emission times past the "
            f"largest float64; lower either"
        ) from exc
    # The trace takes the stream's first k doubles.  Each prefix, the whole
    # trace last, is sorted in place for its D*, and the labels are counted
    # off the sorted whole; the gate, which visits the emissions in label
    # order, reads the lane words after the trace.
    prefix_ks = [k for k in (10**e for e in range(3, 10)) if k < args.k] + [args.k]
    stars, extreme, ungated = prefix_discrepancies(fracs, prefix_ks, args.labels)
    gated = detector_gate(args.p1, args.p2, ungated, rng)
    if not gated.any():
        raise ConfigError(
            f"no emission passed the detector gate at --k {args.k}, --p1 {args.p1} and "
            f"--p2 {args.p2}; raise --k or the readiness probabilities"
        )
    stat_u, dof = uniform_chi_square(ungated)
    stat_g, _ = uniform_chi_square(gated)
    quantile = chi_square_quantile(0.999, dof)
    fields = {
        "theta": args.theta,
        "k": args.k,
        "labels": args.labels,
        "star": stars[-1],
        "extreme_lower": extreme,
        "extreme_upper": extreme,
        "extreme_exact": True,
        "chi_square_ungated": stat_u,
        "chi_square_gated": stat_g,
        "chi_square_dof": dof,
        "chi_square_quantile_999": quantile,
        "uniform_ok": bool(stat_u < quantile and stat_g < quantile),
        "acceptance_rate": int(gated.sum()) / args.k,
    }
    if len(prefix_ks) >= 2:
        fields["rate_slope"] = fit_rate(prefix_ks, stars)
    return fields, (["k", "star_discrepancy"], ([k, repr(s)] for k, s in zip(prefix_ks, stars)))


def _add_setting_opts(p, command, required=False):
    for name in SETTING_FLAGS[command]:
        p.add_argument(f"--{name}", required=required, help=f"setting {name} as x,y,z")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="normalize settings instead of rejecting non-unit vectors",
    )


def _splines_flags(p, command):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=501)
    p.add_argument("--csv", help="dump the residual grid as CSV")


def _verify_flags(p, command):
    p.add_argument("--n", type=int, required=True)
    _add_setting_opts(p, command, required=True)
    p.add_argument("--genuine-variant", action="store_true", dest="genuine_variant")


def _layers_flags(p, command):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, required=True, help="number of companion pairs M")
    p.add_argument("--L", type=int, help="weight intervals per layer (default 2)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tie-weights", action="store_true", dest="tie_weights")
    p.add_argument("--universe", required=True, help="output path for the universe file")


def _analyze_flags(p, command):
    p.add_argument("--universe", required=True)
    _add_setting_opts(p, command, required=True)
    p.add_argument("--witness", action="store_true")


def _experiment_flags(p, command):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--universe", help="universe file whose n the run takes")
    p.add_argument("--n", type=int)
    p.add_argument("--layers", type=int, help="checked against --universe; sizes nothing")
    p.add_argument("--L", type=int, help="checked against --universe; sizes nothing")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_setting_opts(p, command)
    if command == "simulate":
        p.add_argument("--angle", type=float, help="coplanar pair at this angle (degrees)")
        p.add_argument("--csv", help="per-batch means CSV")
    else:
        p.add_argument("--angles", help="four coplanar angles in degrees: a,a',b,b'")


def _poisson_flags(p, command):
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p1", type=float, default=1.0)
    p.add_argument("--p2", type=float, default=1.0)
    p.add_argument("--csv", help="(k, star) prefix series CSV")


# command -> (its --help line, what adds its flags but --out and --timings, what runs it)
COMMANDS = {
    "splines": ("spline residual grid and identity checks", _splines_flags, cmd_splines),
    "verify": ("first-layer mass and correlation identities", _verify_flags, cmd_verify),
    "layers": ("sample a layer universe and serialize it", _layers_flags, cmd_layers),
    "analyze": ("exact dependence diagnostics over a universe", _analyze_flags, cmd_analyze),
    "simulate": ("simulate experiment", _experiment_flags, cmd_simulate),
    "chsh": ("chsh experiment", _experiment_flags, cmd_chsh),
    "poisson": ("emission trace, discrepancy, label uniformity", _poisson_flags, cmd_poisson),
}


def _add_command(p, command):
    _, add_flags, func = COMMANDS[command]
    add_flags(p, command)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--timings", help="write wall time and peak RSS per stage as JSON here")
    p.set_defaults(command=command, func=func)
    return p


def build_parser(command=None) -> argparse.ArgumentParser:
    """The full parser, or `command`'s alone, built as the full one's subparser."""
    if command is not None:
        return _add_command(argparse.ArgumentParser(prog=f"eprsim {command}"), command)
    parser = argparse.ArgumentParser(
        prog="eprsim", description="Local hidden-variable EPR experiment simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_), name)
    return parser


def _run(args) -> None:
    """Resolve the flags, run the command, and write its table and report,
    once the report is known to be strict JSON."""
    _resolve_run_params(args)
    fields, table = args.func(args)
    unreported = ("func", "out", "csv", "timings", "settings")
    config = {k: v for k, v in sorted(vars(args).items()) if k not in unreported}
    report = {
        "command": args.command,
        "config": config,
        "schema_versions": {"report": REPORT_SCHEMA, "universe": UNIVERSE_SCHEMA},
        "version": __version__,
        **fields,
    }
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite number is the program's fault, not the input's
        raise RuntimeError(f"the {args.command} report is not strict JSON: {exc}") from exc
    made = [args.universe] if args.command == "layers" else []
    _write_outputs(text, table, args.csv if table is not None else None, args.out, made)


def _write_outputs(text: str, table, csv_path, out_path, made=()) -> None:
    """Write the table (header, rows) to `csv_path` if given and the report
    to `out_path`, or stdout.  Both files are opened before either is
    written, and an OSError removes every file opened and the files `made`
    that the command wrote, so a run that exits 2 leaves no output file."""
    opened = list(made)
    try:
        with contextlib.ExitStack() as files:
            if csv_path:
                csv_fh = files.enter_context(open(csv_path, "w", newline=""))
                opened.append(csv_path)
            out_fh = sys.stdout
            if out_path:
                out_fh = files.enter_context(open(out_path, "w"))
                opened.append(out_path)
            if csv_path:
                writer = csv.writer(csv_fh)
                writer.writerow(table[0])
                writer.writerows(table[1])
            print(text, file=out_fh)
    except OSError:
        for path in opened:
            Path(path).unlink(missing_ok=True)
        raise


# the library modules whose functions, called from here, --timings times as stages
TIMED_MODULES = ("analysis", "emission", "layers", "measure", "sampling", "splines")


def _run_timed(args, start: float, parsed: float) -> None:
    """`_run` with its stages timed into the --timings file, which is opened
    first, so an unwritable path fails before any work.  `start` and
    `parsed` are `main`'s readings at its start and after the parse."""
    from .timings import StageTimer

    timer = StageTimer()
    timer.add("cli.parse", start, parsed)
    with open(args.timings, "w") as fh, timer.attached(globals(), TIMED_MODULES):
        try:
            with timer.stage(f"cmd.{args.command}", start):
                _run(args)
        finally:
            fh.write(json.dumps(timer.as_dict(), indent=2) + "\n")


def main(argv=None) -> int:
    start = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args, extra = build_parser(command).parse_known_args(argv[1:] if command else argv)
    if extra:
        args = build_parser().parse_args(argv)
    try:
        # no two path flags may name one file, checked before any is opened:
        # the files a run writes and the universe it reads (`layers` writes it)
        named = {}  # each file named, by its path with every link resolved
        for flag in ("universe", "out", "csv", "timings"):
            if vars(args).get(flag):
                first = named.setdefault(os.path.realpath(vars(args)[flag]), flag)
                if first != flag:
                    raise ConfigError(f"--{first} and --{flag} name one file, {vars(args)[flag]}")
        if args.timings:
            _run_timed(args, start, time.perf_counter())
        else:
            _run(args)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
