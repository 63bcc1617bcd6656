"""Command-line harness tying the modules into reproducible experiments.

Subcommands: splines, verify, layers, analyze, simulate, chsh, poisson.
Reports are JSON (stdout or --out) with optional CSV side files; every
report embeds the effective configuration and seeds so identical invocations
produce byte-identical output.  Exit codes: 0 ok, 2 validation error
(including a file path that cannot be read or written), 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import conditional_outcome_bias, dependence_report, pair_expectation
from .config import ConfigError, load_config, parse_setting
from .emission import (
    chi_square_quantile,
    detector_gate,
    discrepancy_stats,
    fit_rate,
    generate_trace,
    star_discrepancy,
    uniform_chi_square,
)
from .layers import (
    UNIVERSE_SCHEMA,
    build_universe,
    layer_count,
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
from .sampling import chsh as run_chsh
from .sampling import run_experiment
from .splines import (
    approx_squared_diff_grid,
    basis_matrix,
    build_spline_system,
    marsden_weight_matrix,
    squared_diff_defect_bound,
)

REPORT_SCHEMA = "report/1"


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _report_base(args, command: str) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out", "csv")}
    return {
        "command": command,
        "config": config,
        "schema_versions": {"report": REPORT_SCHEMA, "universe": UNIVERSE_SCHEMA},
        "version": __version__,
    }


def _setting_arg(args, name: str, default=None):
    text = getattr(args, name, None)
    if text is None:
        return default
    return parse_setting(text, normalize=args.normalize)


def cmd_splines(args) -> int:
    if args.grid < 2:
        raise ConfigError(f"--grid must be >= 2 (got {args.grid})")
    sys_ = build_spline_system(args.n)
    grid = np.linspace(0.0, 1.0, args.grid)
    surface = approx_squared_diff_grid(sys_, grid, grid)
    residual = surface - (grid[:, None] - grid[None, :]) ** 2
    basis = basis_matrix(sys_, grid)
    partition_err = float(np.abs(basis.sum(axis=0) - 1.0).max())
    marsden = marsden_weight_matrix(sys_, grid).T @ basis
    marsden_err = float(np.abs(marsden - (grid[:, None] - grid[None, :]) ** 2).max())
    report = _report_base(args, "splines")
    report.update(
        {
            "n": args.n,
            "grid": args.grid,
            "residual_min": float(residual.min()),
            "residual_max": float(residual.max()),
            "defect_bound": squared_diff_defect_bound(sys_),
            "partition_max_error": partition_err,
            "marsden_max_error": marsden_err,
        }
    )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "residual"])
            for iy, y in enumerate(grid):
                for ix, x in enumerate(grid):
                    writer.writerow([repr(float(x)), repr(float(y)), repr(float(residual[iy, ix]))])
    _emit(report, args.out)
    return 0


def cmd_verify(args) -> int:
    a = _setting_arg(args, "a")
    b = _setting_arg(args, "b")
    mu = build_measure(a, b, args.n)
    integral = pair_integral(mu)
    expected = -float(np.dot(mu.a, mu.b))
    report = _report_base(args, "verify")
    report.update(
        {
            "n": args.n,
            "a": [float(x) for x in mu.a],
            "b": [float(x) for x in mu.b],
            "mass": total_mass(mu),
            "theta_hat": theta_hat(mu),
            "pair_integral": integral,
            "expected": expected,
            "abs_error": abs(integral - expected),
        }
    )
    if args.genuine_variant:
        gv = gap_variant(a, b, normalize_settings=args.normalize)
        report["genuine_variant"] = {
            "m1": gv.m1,
            "m2": gv.m2,
            "total": gv.total,
            "is_unit_mass": gv.is_unit_mass,
        }
    _emit(report, args.out)
    return 0


def cmd_layers(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    universe = build_universe(
        args.n, args.L, args.layers, rng, tie_weights=args.tie_weights
    )
    save_universe(universe, args.universe)
    report = _report_base(args, "layers")
    report.update(
        {
            "n": args.n,
            "interval_count": args.L,
            "pair_count": args.layers,
            "label_count": universe.label_count,
            "published_layer_count_digits": len(str(layer_count(args.n))),
            "universe": str(args.universe),
        }
    )
    _emit(report, args.out)
    return 0


def cmd_analyze(args) -> int:
    universe = load_universe(args.universe)
    a = _setting_arg(args, "a")
    b = _setting_arg(args, "b")
    c = _setting_arg(args, "c")
    rep = dependence_report(universe, a, b, c)
    report = _report_base(args, "analyze")
    report.update(rep.as_dict())
    report["pair_expectation"] = pair_expectation(universe, a, b)
    report["conditional_bias"] = {
        side: conditional_outcome_bias(universe, a, b, side=side) for side in ("A", "B")
    }
    if args.witness:
        report["witness_bias"] = {
            side: conditional_outcome_bias(universe, a, b, side=side, drop_companions=True)
            for side in ("A", "B")
        }
    _emit(report, args.out)
    return 0


def _resolve_run_params(args):
    """Merge CLI flags over an optional --config file; flags win."""
    cfg = load_config(args.config) if args.config else None

    def pick(flag_value, cfg_value, fallback):
        if flag_value is not None:
            return flag_value
        if cfg is not None and cfg_value is not None:
            return cfg_value
        return fallback

    args.n = pick(args.n, cfg.n if cfg else None, 4)
    args.L = pick(args.L, cfg.interval_count if cfg else None, 2)
    args.layers = pick(args.layers, cfg.pair_count if cfg else None, 50)
    args.trials = pick(args.trials, cfg.trials if cfg else None, None)
    args.seed = pick(args.seed, cfg.seed if cfg else None, None)
    if cfg is not None and cfg.tie_weights:
        args.tie_weights = True
    if args.trials is None:
        raise ConfigError("trials must be given (flag --trials or config key)")
    if args.seed is None:
        raise ConfigError("seed must be given explicitly (flag --seed or config key)")
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1 (got {args.trials})")
    return cfg


def _universe_for_run(args, seed_seq):
    if args.universe:
        return load_universe(args.universe)
    rng = np.random.default_rng(seed_seq)
    return build_universe(args.n, args.L, args.layers, rng, tie_weights=args.tie_weights)


def cmd_simulate(args) -> int:
    cfg = _resolve_run_params(args)
    if args.angle is not None:
        a = setting_from_angle(0.0)
        b = setting_from_angle(args.angle)
    else:
        a = _setting_arg(args, "a")
        b = _setting_arg(args, "b")
        if (a is None or b is None) and cfg is not None and len(cfg.settings) >= 2:
            a, b = cfg.settings[0], cfg.settings[1]
        if a is None or b is None:
            raise ConfigError("provide --a and --b, --angle, or two settings in --config")
    universe_seq, trial_seq = np.random.SeedSequence(args.seed).spawn(2)
    universe = _universe_for_run(args, universe_seq)
    batch_means: list[float] = []
    estimate = run_experiment(
        universe, a, b, args.trials, seed=trial_seq, batch_means=batch_means
    )
    report = _report_base(args, "simulate")
    report.update(
        {
            "a": [float(x) for x in a],
            "b": [float(x) for x in b],
            "mean": estimate.mean,
            "stderr": estimate.stderr,
            "trials": estimate.trials,
            "exact_target": estimate.exact_target,
            "abs_error": estimate.abs_error,
        }
    )
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["batch", "mean"])
            for i, m in enumerate(batch_means):
                writer.writerow([i, repr(m)])
    _emit(report, args.out)
    return 0


def cmd_chsh(args) -> int:
    _resolve_run_params(args)
    if args.angles:
        parts = args.angles.split(",")
        if len(parts) != 4:
            raise ConfigError("--angles needs four comma-separated degrees: a,a',b,b'")
        a, a2, b, b2 = (setting_from_angle(float(p)) for p in parts)
    else:
        a = _setting_arg(args, "a")
        a2 = _setting_arg(args, "a2")
        b = _setting_arg(args, "b")
        b2 = _setting_arg(args, "b2")
        if any(v is None for v in (a, a2, b, b2)):
            raise ConfigError("provide --angles or all of --a --a2 --b --b2")
    universe_seq, trial_seq = np.random.SeedSequence(args.seed).spawn(2)
    universe = _universe_for_run(args, universe_seq)
    estimate = run_chsh(universe, a, a2, b, b2, args.trials, seed=trial_seq)
    report = _report_base(args, "chsh")
    report.update(
        {
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
    )
    _emit(report, args.out)
    return 0


def cmd_poisson(args) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    trace = generate_trace(args.theta, args.k, rng)
    stats = discrepancy_stats(trace.fracs)
    prefix_ks = [k for k in (10**e for e in range(3, 10)) if k < args.k] + [args.k]
    prefix_ks = sorted({k for k in prefix_ks if k >= 1})
    # the last prefix is the whole trace, whose D* the one sort above gave
    stars = [star_discrepancy(trace.fracs[:k]) for k in prefix_ks[:-1]] + [stats.star]
    gate = detector_gate(args.p1, args.p2, args.labels, args.k, args.theta, rng)
    stat_u, dof = uniform_chi_square(gate.ungated_counts)
    stat_g, _ = uniform_chi_square(gate.gated_counts)
    quantile = chi_square_quantile(0.999, dof)
    report = _report_base(args, "poisson")
    report.update(
        {
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
    )
    if len(prefix_ks) >= 2:
        fit = fit_rate(prefix_ks, stars)
        report["rate_slope"] = fit.slope
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "star_discrepancy"])
            for k, s in zip(prefix_ks, stars):
                writer.writerow([k, repr(s)])
    _emit(report, args.out)
    return 0


def _add_setting_opts(p, names=("a", "b")):
    for name in names:
        p.add_argument(f"--{name}", help=f"setting {name} as x,y,z")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="normalize settings instead of rejecting non-unit vectors",
    )


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
    p.add_argument("--out")
    p.set_defaults(func=cmd_splines)

    p = sub.add_parser("verify", help="first-layer mass and correlation identities")
    p.add_argument("--n", type=int, required=True)
    _add_setting_opts(p)
    p.add_argument("--genuine-variant", action="store_true", dest="genuine_variant")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("layers", help="sample a layer universe and serialize it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, required=True, help="number of companion pairs M")
    p.add_argument("--L", type=int, default=2, help="weight intervals per layer")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tie-weights", action="store_true", dest="tie_weights")
    p.add_argument("--universe", required=True, help="output path for the universe JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_layers)

    p = sub.add_parser("analyze", help="exact dependence diagnostics over a universe")
    p.add_argument("--universe", required=True)
    _add_setting_opts(p, names=("a", "b", "c"))
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    for name, fn in (("simulate", cmd_simulate), ("chsh", cmd_chsh)):
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--universe", help="existing universe JSON (else sampled fresh)")
        p.add_argument("--n", type=int)
        p.add_argument("--layers", type=int)
        p.add_argument("--L", type=int)
        p.add_argument("--tie-weights", action="store_true", dest="tie_weights")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        if name == "simulate":
            _add_setting_opts(p)
            p.add_argument("--angle", type=float, help="coplanar pair at this angle (degrees)")
            p.add_argument("--csv", help="per-batch means CSV")
        else:
            _add_setting_opts(p, names=("a", "a2", "b", "b2"))
            p.add_argument("--angles", help="four coplanar angles in degrees: a,a',b,b'")
        p.add_argument("--out")
        p.set_defaults(func=fn)

    p = sub.add_parser("poisson", help="emission trace, discrepancy, label uniformity")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p1", type=float, default=1.0)
    p.add_argument("--p2", type=float, default=1.0)
    p.add_argument("--csv", help="(k, star) prefix series CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_poisson)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
