#!/usr/bin/env python3
"""Discrepancy decay of wrapped Poisson emission times, with an iid control.

Writes a CSV of (kind, theta, k, star) rows and prints fitted log-log
slopes; the Poisson and iid-uniform sequences should both decay like
k^(-1/2) up to log factors.

    python scripts/run_discrepancy_scan.py --seed 5 --out discrepancy.csv
"""

import argparse
import csv
import math
import sys

from eprsim import fit_rate, generate_trace, prefix_discrepancies
from eprsim.config import ConfigError, check_size
from eprsim.streams import stream


def _mean_wait(text: str) -> float:
    """One of --thetas as a finite positive float."""
    try:
        theta = float(text)
    except ValueError:
        theta = math.nan
    if not (math.isfinite(theta) and theta > 0.0):
        raise ConfigError(f"--thetas: {text!r} is not a finite positive mean wait")
    return theta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--thetas", default="0.5,1,2", help="comma-separated mean waits")
    parser.add_argument("--kmax", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default="discrepancy.csv")
    args = parser.parse_args()

    try:
        check_size("seed", args.seed)
        if args.kmax < 10**4:
            raise ConfigError(
                f"--kmax must be >= 10000 (got {args.kmax}): the slope fit needs the "
                "prefix sizes 1000 and 10000"
            )
        thetas = [_mean_wait(text) for text in args.thetas.split(",")]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ks = [10**e for e in range(3, 10) if 10**e <= args.kmax]
    rng = stream(args.seed)
    rows = []

    for theta in thetas:
        fracs = generate_trace(theta, args.kmax, rng)
        stars = prefix_discrepancies(fracs, ks)[0]
        slope = fit_rate(ks, stars)
        rows += [("poisson", theta, k, s) for k, s in zip(ks, stars)]
        print(f"poisson theta={theta:<4}: slope {slope:+.3f}  D*({ks[-1]}) = {stars[-1]:.2e}")

    uniform = rng.random(args.kmax)
    stars = prefix_discrepancies(uniform, ks)[0]
    rows += [("uniform", float("nan"), k, s) for k, s in zip(ks, stars)]
    print(f"uniform control  : slope {fit_rate(ks, stars):+.3f}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "theta", "k", "star_discrepancy"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
