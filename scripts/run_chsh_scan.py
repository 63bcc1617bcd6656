#!/usr/bin/env python3
"""Sweep the analyzer angle and compare Monte Carlo correlations to -cos.

Writes a CSV of (angle, mean, stderr, target) and prints a CHSH summary at
the optimal settings.

    python scripts/run_chsh_scan.py --trials 200000 --seed 7 --out chsh_scan.csv
"""

import argparse
import csv
import math
import sys

import numpy as np

from eprsim import chsh, run_experiment, setting_from_angle
from eprsim.config import ConfigError, check_size
from eprsim.streams import seed_sequence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--step", type=float, default=7.5, help="angle step in degrees")
    parser.add_argument("--out", default="chsh_scan.csv")
    args = parser.parse_args()

    try:
        for name in ("seed", "n", "trials"):
            check_size(name, getattr(args, name))
        if not (math.isfinite(args.step) and args.step > 0.0):
            raise ConfigError(f"--step must be finite and positive degrees (got {args.step})")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the products depend on no universe, only on n
    a = setting_from_angle(0.0)
    angles = np.arange(0.0, 180.0 + 1e-9, args.step)
    children = seed_sequence(args.seed).spawn(len(angles) + 1)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["angle_deg", "mean", "stderr", "target"])
        for angle, child in zip(angles, children):
            est = run_experiment(args.n, a, setting_from_angle(angle), args.trials, seed=child)
            writer.writerow([angle, est.mean, est.stderr, est.exact_target])
            print(f"angle {angle:6.1f}  mean {est.mean:+.5f}  target {est.exact_target:+.5f}")

    est = chsh(
        args.n,
        setting_from_angle(0.0),
        setting_from_angle(90.0),
        setting_from_angle(45.0),
        setting_from_angle(135.0),
        args.trials,
        seed=children[-1],
    )
    print(f"CHSH S = {est.s_value:.4f} +/- {est.stderr:.4f} (quantum bound 2*sqrt(2) = 2.8284)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
