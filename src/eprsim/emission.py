"""Poisson emission times, uniformity mod 1, and exact discrepancy measures.

Emission times are partial sums of exponential waits; wrapped around the
unit-circumference circle their fractional parts become uniform, which is
what justifies reading the label off the arrival time.  Discrepancies are
computed exactly from one sort of the points at every size: the one-sided
parts D+ and D- give the star (anchored) form D* = max(D+, D-) by the
classical order-statistic formula and the extreme form D = D+ + D-.

One kernel makes the times, `CHUNK` at a time, in the buffer that receives
their fractional parts: uniforms, waits -theta*log1p(-U) and their running
sum are formed in place, the sum carrying the time reached so far into its
first term.  numpy's cumsum adds in sequence, so every part is that of the
whole-trace cumsum to the bit.  `generate_trace` keeps only the k fractional
parts; `detector_gate` keeps none of them, and counts labels chunk by chunk;
the discrepancies read the sorted points chunk by chunk.  So a `poisson` run
holds at most two arrays of k floats: the parts and their sorted copy.

The package imports only numpy and the standard library when it loads.
scipy serves one function, `chi_square_quantile` (the `poisson` command),
which imports `scipy.special` when called; so no other command loads scipy,
and `poisson` loads `scipy.special` but not `scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampling import _block

# emission times per chunk of the kernel, the gate and the discrepancy scan:
# a chunk's float64 temporaries stay near 0.5 MiB
CHUNK = 1 << 16


@dataclass(frozen=True)
class EmissionTrace:
    """The fractional parts of k emission times with mean wait theta."""

    theta: float
    fracs: np.ndarray = field(repr=False, compare=False)


def _check_trace_args(theta: float, k: int) -> None:
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be finite and positive, got {theta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _fractional_times(part: np.ndarray, theta: float, start: float, rng) -> float:
    """Fill `part` with the fractional parts of the next `part.size` emission
    times after the time `start`, one double of `rng` each, and return the
    time of the last.  Raises OverflowError if a time passes the largest
    float64."""
    rng.random(out=part)
    np.negative(part, out=part)
    np.log1p(part, out=part)
    with np.errstate(over="ignore"):
        np.multiply(part, -theta, out=part)
        part[0] += start
        np.cumsum(part, out=part)
    end = float(part[-1])
    # waits are >= 0, so an infinite wait or sum leaves the last time infinite
    if not math.isfinite(end):
        raise OverflowError(f"emission times at theta {theta} pass the largest float64")
    part -= np.floor(part)
    return end


def generate_trace(theta: float, k: int, rng: np.random.Generator) -> EmissionTrace:
    """k exponential waits with mean theta, by inverse transform
    -theta*log(1-U), reduced to the fractional parts of their running sums.
    Draws k doubles of `rng`."""
    _check_trace_args(theta, k)
    fracs = np.empty(k)
    time = 0.0
    for lo in range(0, k, CHUNK):
        time = _fractional_times(fracs[lo : lo + CHUNK], theta, time, rng)
    fracs.setflags(write=False)
    return EmissionTrace(theta=float(theta), fracs=fracs)


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
    d_plus = d_minus = 0.0
    for lo in range(0, k, CHUNK):
        part = pts[lo : lo + CHUNK]
        grid = np.arange(lo + 1, lo + part.size + 1) / k
        d_plus = max(d_plus, float((grid - part).max()))
        d_minus = max(d_minus, float((part - (grid - 1.0 / k)).max()))
    return pts, d_plus, d_minus


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
    return _labels(trace.fracs, label_count)


def _labels(fracs: np.ndarray, label_count: int) -> np.ndarray:
    m = (fracs * label_count).astype(np.int64) + 1
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
    """Gate each of k emissions by two independent readiness draws.

    Readiness is independent of the emission time, so conditioning on both
    devices being ready leaves the label law unchanged.  The stream holds the
    k emission uniforms, then k draws against p1, then k against p2; the gate
    walks the three blocks together, a chunk at a time, and leaves `rng` past
    all 3k doubles.  The p1 and p2 blocks are read from copies of `rng`
    advanced past the blocks before them, so its bit generator must be one
    whose `advance` counts doubles, such as the PCG64 of `default_rng`.
    Every argument is checked before anything is drawn.
    """
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {p}")
    if label_count < 1:
        raise ValueError("label count must be >= 1")
    _check_trace_args(theta, k)
    ready1, ready2 = (_block(rng, k, block) for block in (1, 2))
    # a chunk at least as long as the label count keeps each chunk's bincounts
    # within a constant factor of its length
    buf = np.empty(min(k, max(CHUNK, label_count)))
    ungated = np.zeros(label_count + 1, dtype=np.int64)
    gated = np.zeros(label_count + 1, dtype=np.int64)
    accepted = 0
    time = 0.0
    for lo in range(0, k, buf.size):
        part = buf[: min(buf.size, k - lo)]
        time = _fractional_times(part, theta, time, rng)
        labels = _labels(part, label_count)
        ready = ready1.random(part.size) < p1
        ready &= ready2.random(part.size) < p2
        ungated += np.bincount(labels, minlength=label_count + 1)
        gated += np.bincount(labels[ready], minlength=label_count + 1)
        accepted += int(np.count_nonzero(ready))
    rng.bit_generator.advance(2 * k)
    ungated, gated = ungated[1:], gated[1:]
    for arr in (ungated, gated):
        arr.setflags(write=False)
    return GateResult(
        label_count=label_count,
        ungated_counts=ungated,
        gated_counts=gated,
        total=int(k),
        accepted=accepted,
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
