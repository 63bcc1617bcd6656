"""Command-line harness tying the modules into reproducible experiments.

Subcommands: splines, verify, layers, analyze, simulate, chsh, poisson.
Reports are JSON (stdout or --out) with optional CSV side files; every
report embeds the effective configuration and seeds so identical invocations
produce byte-identical output.  Exit codes: 0 ok, 2 validation error
(including a file path that cannot be read or written), 1 internal error.

`main` resolves the flags, runs the command, which returns its report fields
and CSV table (header, rows) or None, and writes the report and the table.
With `--timings FILE` it also writes each stage's wall time and peak RSS to
FILE (see `timings`); the report is the same with or without it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import dependence_report, outcome_biases, pair_expectation
from .config import (
    BUDGET,
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
    MAX_SAVED_N,
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
from .splines import build_spline_system, identity_errors

REPORT_SCHEMA = "report/1"

# the setting flags a config file's `settings` fill, in order
SETTING_FLAGS = {"simulate": ("a", "b"), "chsh": ("a", "a2", "b", "b2")}


def _setting_arg(args, name: str):
    text = getattr(args, name)
    return None if text is None else parse_setting(text, normalize=args.normalize)


def cmd_splines(args):
    sys_ = build_spline_system(args.n)
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
    a = _setting_arg(args, "a")
    b = _setting_arg(args, "b")
    mu = build_measure(a, b, args.n)
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
        gv = gap_variant(a, b)
        fields["genuine_variant"] = {
            "m1": gv.m1,
            "m2": gv.m2,
            "total": gv.total,
            "is_unit_mass": gv.is_unit_mass,
        }
    return fields, None


def cmd_layers(args):
    # checked before the build, which at this n could take the whole budget
    if args.n > MAX_SAVED_N:
        raise ConfigError(
            f"--n must be <= {MAX_SAVED_N} (got {args.n}): {UNIVERSE_SCHEMA} stores "
            "the 3n+12 positions of a row as uint16"
        )
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    universe = build_universe(
        args.n, args.L, args.layers, rng, tie_weights=args.tie_weights
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
    try:
        check_budget("analyze", {"n": universe.n})
    except ConfigError:
        raise ConfigError(
            f"{args.universe}: universe field 'n' = {universe.n} is past the sizes "
            f"`analyze` takes: its run would pass the {BUDGET >> 30} GiB budget"
        ) from None
    a = _setting_arg(args, "a")
    b = _setting_arg(args, "b")
    c = _setting_arg(args, "c")
    fields = dependence_report(universe, a, b, c).as_dict()
    fields["pair_expectation"] = pair_expectation(universe, a, b)
    biases = outcome_biases(universe, a, b)
    fields["conditional_bias"] = {side: pair[0] for side, pair in biases.items()}
    if args.witness:
        fields["witness_bias"] = {side: pair[1] for side, pair in biases.items()}
    return fields, None


# the run flags a --universe file must agree with, each with its field there
UNIVERSE_SIZES = {"n": "n", "L": "interval_count", "layers": "pair_count"}


def _resolve_run_params(args) -> None:
    """Fill each flag left unset from the --config file, then from
    RUN_DEFAULTS (flags win), and check every size and seed.  A run on an
    existing --universe takes its sizes from the file instead of the
    defaults (see `_run_order`)."""
    params = vars(args)
    cfg = load_config(args.config) if params.get("config") else {}
    settings = cfg.pop("settings", None)
    if settings is not None:
        names = SETTING_FLAGS[args.command]
        if len(settings) != len(names):
            raise ConfigError(
                f"settings: {args.command} takes {len(names)} ({', '.join(names)}), "
                f"got {len(settings)}"
            )
        for text in settings:
            try:
                parse_setting(text, normalize=args.normalize)
            except ConfigError as exc:
                raise ConfigError(f"settings: {args.config}: {exc}") from exc
        cfg.update((name, text) for name, text in zip(names, settings))
    for key, value in cfg.items():
        if params[key] is None:
            params[key] = value
    # simulate and chsh read --universe (layers writes it)
    from_file = args.command in SETTING_FLAGS and params["universe"] is not None
    for key, default in RUN_DEFAULTS.items():
        if key in params and params[key] is None and not (from_file and key in UNIVERSE_SIZES):
            if default is None:
                raise ConfigError(f"{key} must be given (flag --{key} or config key)")
            params[key] = default
    for key in MINIMUMS:
        if params.get(key) is not None:
            check_size(key, params[key])
    check_budget(args.command, params)


def _run_order(args) -> int:
    """The order n a run samples at, all a products run reads.  A fresh run
    builds no universe; a --universe file is still read and validated, its
    sizes must agree with any size given by flag or config, and they become
    the sizes the report shows.  --L and --layers size nothing here."""
    if not args.universe:
        return args.n
    universe = load_universe(args.universe)
    for key, field in UNIVERSE_SIZES.items():
        value = getattr(universe, field)
        given = getattr(args, key)
        if given is not None and given != value:
            raise ConfigError(
                f"--{key} {given} disagrees with {args.universe}, which has {key} = {value}"
            )
        setattr(args, key, value)
    return universe.n


def _angle_setting(flag: str, degrees) -> np.ndarray:
    """The coplanar setting at `degrees`, a finite number given by `flag`."""
    try:
        value = float(degrees)
    except ValueError:
        raise ConfigError(f"{flag}: {degrees!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite degrees (got {degrees})")
    return setting_from_angle(value)


def cmd_simulate(args):
    if args.angle is not None:
        a = setting_from_angle(0.0)
        b = _angle_setting("--angle", args.angle)
    else:
        a, b = (_setting_arg(args, name) for name in SETTING_FLAGS["simulate"])
        if a is None or b is None:
            raise ConfigError("provide --a and --b, --angle, or two settings in --config")
    batch_means: list[float] = []
    estimate = run_experiment(
        _run_order(args), a, b, args.trials, seed=args.seed, batch_means=batch_means
    )
    fields = {
        "a": [float(x) for x in a],
        "b": [float(x) for x in b],
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "trials": estimate.trials,
        "exact_target": estimate.exact_target,
        "abs_error": estimate.abs_error,
    }
    return fields, (["batch", "mean"], ([i, repr(m)] for i, m in enumerate(batch_means)))


def cmd_chsh(args):
    if args.angles:
        parts = args.angles.split(",")
        if len(parts) != 4:
            raise ConfigError("--angles needs four comma-separated degrees: a,a',b,b'")
        a, a2, b, b2 = (_angle_setting("--angles", p) for p in parts)
    else:
        a, a2, b, b2 = (_setting_arg(args, name) for name in SETTING_FLAGS["chsh"])
        if any(v is None for v in (a, a2, b, b2)):
            raise ConfigError(
                "provide --angles, all of --a --a2 --b --b2, or four settings in --config"
            )
    estimate = run_chsh(_run_order(args), a, a2, b, b2, args.trials, seed=args.seed)
    fields = {
        "s_value": estimate.s_value,
        "stderr": estimate.stderr,
        "components": [
            {
                "mean": comp.mean,
                "stderr": comp.stderr,
                "trials": comp.trials,
                "exact_target": comp.exact_target,
            }
            for comp in estimate.components
        ],
    }
    return fields, None


def cmd_poisson(args):
    # checked before the stream is touched
    if not (math.isfinite(args.theta) and args.theta > 0.0):
        raise ConfigError(f"--theta must be finite and positive (got {args.theta})")
    for flag in ("p1", "p2"):
        p = getattr(args, flag)
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"--{flag} must lie in (0, 1] (got {p})")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
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
    stars, stats, ungated = prefix_discrepancies(fracs, prefix_ks, args.labels)
    gate = detector_gate(args.p1, args.p2, ungated, rng)
    if not gate.gated_counts.any():
        raise ConfigError(
            f"no emission passed the detector gate at --k {args.k}, --p1 {args.p1} and "
            f"--p2 {args.p2}; raise --k or the readiness probabilities"
        )
    stat_u, dof = uniform_chi_square(ungated)
    stat_g, _ = uniform_chi_square(gate.gated_counts)
    quantile = chi_square_quantile(0.999, dof)
    fields = {
        "theta": args.theta,
        "k": args.k,
        "labels": args.labels,
        "star": stats.star,
        "extreme_lower": stats.extreme,
        "extreme_upper": stats.extreme,
        "extreme_exact": True,
        "chi_square_ungated": stat_u,
        "chi_square_gated": stat_g,
        "chi_square_dof": dof,
        "chi_square_quantile_999": quantile,
        "uniform_ok": bool(stat_u < quantile and stat_g < quantile),
        "acceptance_rate": gate.acceptance_rate,
    }
    if len(prefix_ks) >= 2:
        fields["rate_slope"] = fit_rate(prefix_ks, stars)
    return fields, (["k", "star_discrepancy"], ([k, repr(s)] for k, s in zip(prefix_ks, stars)))


def _add_setting_opts(p, names=("a", "b"), required=False):
    for name in names:
        p.add_argument(f"--{name}", required=required, help=f"setting {name} as x,y,z")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="normalize settings instead of rejecting non-unit vectors",
    )


def _add_output_opts(p):
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--timings", help="write wall time and peak RSS per stage as JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprsim",
        description="Local hidden-variable EPR experiment simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("splines", help="spline residual grid and identity checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=501)
    p.add_argument("--csv", help="dump the residual grid as CSV")
    _add_output_opts(p)
    p.set_defaults(func=cmd_splines)

    p = sub.add_parser("verify", help="first-layer mass and correlation identities")
    p.add_argument("--n", type=int, required=True)
    _add_setting_opts(p, required=True)
    p.add_argument("--genuine-variant", action="store_true", dest="genuine_variant")
    _add_output_opts(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("layers", help="sample a layer universe and serialize it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, required=True, help="number of companion pairs M")
    p.add_argument("--L", type=int, help="weight intervals per layer (default 2)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tie-weights", action="store_true", dest="tie_weights")
    p.add_argument("--universe", required=True, help="output path for the universe file")
    _add_output_opts(p)
    p.set_defaults(func=cmd_layers)

    p = sub.add_parser("analyze", help="exact dependence diagnostics over a universe")
    p.add_argument("--universe", required=True)
    _add_setting_opts(p, names=("a", "b", "c"), required=True)
    p.add_argument("--witness", action="store_true")
    _add_output_opts(p)
    p.set_defaults(func=cmd_analyze)

    for name, fn in (("simulate", cmd_simulate), ("chsh", cmd_chsh)):
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--universe", help="universe file whose n the run takes")
        p.add_argument("--n", type=int)
        p.add_argument("--layers", type=int, help="checked against --universe; sizes nothing")
        p.add_argument("--L", type=int, help="checked against --universe; sizes nothing")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        if name == "simulate":
            _add_setting_opts(p)
            p.add_argument("--angle", type=float, help="coplanar pair at this angle (degrees)")
            p.add_argument("--csv", help="per-batch means CSV")
        else:
            _add_setting_opts(p, names=("a", "a2", "b", "b2"))
            p.add_argument("--angles", help="four coplanar angles in degrees: a,a',b,b'")
        _add_output_opts(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("poisson", help="emission trace, discrepancy, label uniformity")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p1", type=float, default=1.0)
    p.add_argument("--p2", type=float, default=1.0)
    p.add_argument("--csv", help="(k, star) prefix series CSV")
    _add_output_opts(p)
    p.set_defaults(func=cmd_poisson)

    return parser


def _run(args) -> None:
    """Resolve the flags, run the command, and write its table and report,
    once the report is known to be strict JSON."""
    _resolve_run_params(args)
    fields, table = args.func(args)
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out", "csv", "timings")
    }
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
    if table is not None and args.csv:
        header, rows = table
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


# the library modules whose functions, called from here, --timings times as stages
TIMED_MODULES = ("analysis", "emission", "layers", "measure", "sampling", "splines")


def _run_timed(args) -> None:
    """`_run` with its stages timed into the --timings file, which is opened
    first, so an unwritable path fails before any work."""
    from .timings import StageTimer

    timer = StageTimer()
    with open(args.timings, "w") as fh:
        try:
            with timer.attached(globals(), TIMED_MODULES), timer.stage(f"cmd.{args.command}"):
                _run(args)
        finally:
            fh.write(json.dumps(timer.as_dict(), indent=2) + "\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.timings:
            _run_timed(args)
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
