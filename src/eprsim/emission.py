"""Poisson emission times, uniformity mod 1, and exact discrepancy measures.

Emission times are partial sums of exponential waits; wrapped around the
unit-circumference circle their fractional parts become uniform, which is
what justifies reading the label off the arrival time.  Discrepancies are
computed exactly from one sort of the points at every size: the one-sided
parts D+ and D- give the star (anchored) form D* = max(D+, D-) by the
classical order-statistic formula and the extreme form D = D+ + D-.

The package imports only numpy and the standard library when it loads.
scipy serves one function, `chi_square_quantile` (the `poisson` command),
which imports `scipy.special` when called; so no other command loads scipy,
and `poisson` loads `scipy.special` but not `scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EmissionTrace:
    """Waiting times, cumulative emission times, and their fractional parts."""

    theta: float
    waits: np.ndarray = field(repr=False, compare=False)
    cums: np.ndarray = field(repr=False, compare=False)
    fracs: np.ndarray = field(repr=False, compare=False)


def generate_trace(theta: float, k: int, rng: np.random.Generator) -> EmissionTrace:
    """k exponential waits with mean theta, by inverse transform -theta*log(1-U)."""
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be finite and positive, got {theta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    u = rng.random(k)
    waits = -theta * np.log1p(-u)
    cums = np.cumsum(waits)
    fracs = cums - np.floor(cums)
    for arr in (waits, cums, fracs):
        arr.setflags(write=False)
    return EmissionTrace(theta=float(theta), waits=waits, cums=cums, fracs=fracs)


def _checked_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1)
    if pts.size == 0:
        raise ValueError("point set must be nonempty")
    # min and max are NaN if any point is, which fails both comparisons
    if not (pts.min() >= 0.0 and pts.max() < 1.0):
        raise ValueError("points must be finite and lie in [0, 1)")
    return pts


def _sorted_parts(points) -> tuple[np.ndarray, float, float]:
    """Sorted points and the one-sided parts D+ = max_i (i/k - x_(i)) and
    D- = max_i (x_(i) - (i-1)/k), each at least 0."""
    pts = np.sort(_checked_points(points))
    k = pts.size
    grid = np.arange(1, k + 1) / k
    d_plus = float((grid - pts).max())
    d_minus = float((pts - (grid - 1.0 / k)).max())
    return pts, max(d_plus, 0.0), max(d_minus, 0.0)


def star_discrepancy(points) -> float:
    """Exact anchored discrepancy D*_k from the sorted points:
    max_i max(i/k - x_(i), x_(i) - (i-1)/k) = max(D+, D-)."""
    _, d_plus, d_minus = _sorted_parts(points)
    return max(d_plus, d_minus)


@dataclass(frozen=True)
class DiscrepancyStats:
    """Summary of one point set from one sort: size, the star discrepancy
    D* = max(D+, D-), and the extreme discrepancy D = D+ + D- over all
    half-open subintervals of [0, 1) (Niederreiter 1992, ch. 2)."""

    k: int
    star: float
    extreme: float


def discrepancy_stats(points) -> DiscrepancyStats:
    pts, d_plus, d_minus = _sorted_parts(points)
    return DiscrepancyStats(k=int(pts.size), star=max(d_plus, d_minus), extreme=d_plus + d_minus)


def labels_from_trace(trace: EmissionTrace, label_count: int) -> np.ndarray:
    """Label m = floor({x} * N) + 1 (1-based) of every emission time x in a
    trace, read off its wrapped fractional part."""
    if label_count < 1:
        raise ValueError("label count must be >= 1")
    m = (trace.fracs * label_count).astype(np.int64) + 1
    return np.minimum(m, label_count)


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the star discrepancy against the sample size."""

    ks: tuple[int, ...]
    star_values: tuple[float, ...]
    slope: float
    intercept: float
    residuals: tuple[float, ...]


def fit_rate(ks, star_values) -> RateFit:
    ks = tuple(int(k) for k in ks)
    stars = tuple(float(s) for s in star_values)
    if len(ks) != len(stars):
        raise ValueError(f"{len(ks)} sizes but {len(stars)} discrepancy values")
    if len(set(ks)) < 2 or min(ks) < 1:
        raise ValueError("need at least two distinct positive sizes")
    if not all(s > 0.0 for s in stars):
        raise ValueError("discrepancy values must be positive")
    logk = np.log(np.asarray(ks, dtype=float))
    logd = np.log(np.asarray(stars, dtype=float))
    slope, intercept = np.polyfit(logk, logd, 1)
    resid = logd - (slope * logk + intercept)
    return RateFit(
        ks=ks,
        star_values=stars,
        slope=float(slope),
        intercept=float(intercept),
        residuals=tuple(float(r) for r in resid),
    )


@dataclass(frozen=True)
class GateResult:
    """Label frequencies before and after detector-readiness gating."""

    label_count: int
    ungated_counts: np.ndarray = field(repr=False, compare=False)
    gated_counts: np.ndarray = field(repr=False, compare=False)
    total: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.total if self.total else 0.0


def detector_gate(
    p1: float,
    p2: float,
    label_count: int,
    k: int,
    theta: float,
    rng: np.random.Generator,
) -> GateResult:
    """Gate each emission by two independent readiness draws.

    Readiness is independent of the emission time, so conditioning on both
    devices being ready leaves the label law unchanged.
    """
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {p}")
    trace = generate_trace(theta, k, rng)
    labels = labels_from_trace(trace, label_count)
    ready = (rng.random(k) < p1) & (rng.random(k) < p2)
    ungated = np.bincount(labels, minlength=label_count + 1)[1:]
    gated = np.bincount(labels[ready], minlength=label_count + 1)[1:]
    for arr in (ungated, gated):
        arr.setflags(write=False)
    return GateResult(
        label_count=label_count,
        ungated_counts=ungated,
        gated_counts=gated,
        total=int(k),
        accepted=int(ready.sum()),
    )


def uniform_chi_square(counts) -> tuple[float, int]:
    """Chi-square statistic and dof against the uniform label law."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty counts")
    expected = total / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, counts.size - 1


def chi_square_quantile(level: float, dof: int) -> float:
    """Quantile at `level` (e.g. 0.999) of the chi-square distribution with
    `dof` degrees of freedom: 2 * P^-1(dof/2, level), P the regularized lower
    incomplete gamma function, the expression `scipy.stats.chi2.ppf`
    evaluates, so the value is the same to the bit."""
    from scipy.special import gammaincinv

    return float(2 * gammaincinv(dof / 2, level))
