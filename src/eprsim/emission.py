"""Poisson emission times, uniformity mod 1, and exact discrepancy measures.

Emission times are partial sums of exponential waits; wrapped around the
unit-circumference circle their fractional parts become uniform, which is
what justifies reading the label off the arrival time.  Discrepancies are
computed exactly from the points in ascending order at every size: the
one-sided parts D+ and D- give the star (anchored) form D* = max(D+, D-) by
the classical order-statistic formula and the extreme form D = D+ + D-.

One kernel makes the times, `CHUNK` at a time, in the buffer that receives
their fractional parts: uniforms, waits -theta*log1p(-U) and their running
sum are formed in place, the sum carrying the time reached so far into its
first term.  numpy's cumsum adds in sequence, so every part is that of the
whole-trace cumsum to the bit.  `generate_trace` keeps only the k fractional
parts, in an array the caller owns; the discrepancies read points chunk by
chunk, sorting a copy only of points not already ascending.  `detector_gate`
labels those same parts, floor({x} * N) + 1, and counts the labels and
readiness in a few buffers of one `GATE_CHUNK` each, made once, adding each
chunk's keys into 2N counts with `np.add.at`.  `poisson` gates the trace,
then sorts it in place, so a run holds one array of k floats.

The package imports only numpy and the standard library when it loads.
scipy serves one function, `chi_square_quantile` (the `poisson` command),
which imports `scipy.special` when called; so no other command loads scipy,
and `poisson` loads `scipy.special` but not `scipy.stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .streams import advanced_copy

# emission times per chunk of the trace kernel and the discrepancy scan: a
# chunk's float64 temporaries stay near 0.5 MiB
CHUNK = 1 << 16
# emissions per chunk of the detector gate: its four one-chunk buffers, 18
# bytes per emission, stay near 0.3 MiB at any label count while `poisson`
# holds a trace beside it
GATE_CHUNK = 1 << 14


def generate_trace(theta: float, k: int, rng: np.random.Generator) -> np.ndarray:
    """k exponential waits with mean theta, by inverse transform
    -theta*log(1-U), reduced to the fractional parts of their running sums,
    in a new array the caller may write.  Draws k doubles of `rng`.  Raises
    OverflowError if a time passes the largest float64."""
    if not (math.isfinite(theta) and theta > 0.0):
        raise ValueError(f"theta must be finite and positive, got {theta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fracs = np.empty(k)
    time = 0.0
    for lo in range(0, k, CHUNK):
        part = fracs[lo : lo + CHUNK]
        rng.random(out=part)
        np.negative(part, out=part)
        np.log1p(part, out=part)
        with np.errstate(over="ignore"):
            np.multiply(part, -theta, out=part)
            part[0] += time
            np.cumsum(part, out=part)
        time = float(part[-1])
        # waits are >= 0, so an infinite wait or sum leaves the last time infinite
        if not math.isfinite(time):
            raise OverflowError(f"emission times at theta {theta} pass the largest float64")
        part -= np.floor(part)
    return fracs


def _checked_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float).reshape(-1)
    if pts.size == 0:
        raise ValueError("point set must be nonempty")
    # min and max are NaN if any point is, which fails both comparisons
    if not (pts.min() >= 0.0 and pts.max() < 1.0):
        raise ValueError("points must be finite and lie in [0, 1)")
    return pts


def _sorted_parts(points) -> tuple[int, float, float]:
    """Size and the one-sided parts D+ = max_i (i/k - x_(i)) and
    D- = max_i (x_(i) - (i-1)/k), each at least 0.  Points not already
    ascending are sorted in a copy; the caller's array is never written."""
    pts = _checked_points(points)
    # each chunk overlaps the next by one point, so every adjacent pair is read
    chunks = (pts[lo : lo + CHUNK + 1] for lo in range(0, pts.size - 1, CHUNK))
    if any(np.less(c[1:], c[:-1]).any() for c in chunks):
        pts = np.sort(pts)
    k = pts.size
    size = min(k, CHUNK)
    # a chunk's indices i as floats; one buffer for i/k and each difference
    index, grid = np.arange(1.0, size + 1), np.empty(size)
    d_plus = d_minus = 0.0
    for lo in range(0, k, size):
        part = pts[lo : lo + size]
        i, g = index[: part.size], grid[: part.size]
        d_plus = max(d_plus, float(np.subtract(np.divide(i, k, out=g), part, out=g).max()))
        np.subtract(np.divide(i, k, out=g), 1.0 / k, out=g)
        d_minus = max(d_minus, float(np.subtract(part, g, out=g).max()))
        index += size
    return k, d_plus, d_minus


def star_discrepancy(points) -> float:
    """Exact anchored discrepancy D*_k from the points in ascending order:
    max_i max(i/k - x_(i), x_(i) - (i-1)/k) = max(D+, D-)."""
    _, d_plus, d_minus = _sorted_parts(points)
    return max(d_plus, d_minus)


@dataclass(frozen=True)
class DiscrepancyStats:
    """Summary of one point set from one ascending scan: size, the star
    discrepancy D* = max(D+, D-), and the extreme discrepancy D = D+ + D-
    over all half-open subintervals of [0, 1) (Niederreiter 1992, ch. 2)."""

    k: int
    star: float
    extreme: float


def discrepancy_stats(points) -> DiscrepancyStats:
    k, d_plus, d_minus = _sorted_parts(points)
    return DiscrepancyStats(k=k, star=max(d_plus, d_minus), extreme=d_plus + d_minus)


@dataclass(frozen=True)
class RateFit:
    """Log-log fit of the star discrepancy against the sample size."""

    star_values: tuple[float, ...]
    slope: float


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
    slope, _ = np.polyfit(logk, logd, 1)
    return RateFit(star_values=stars, slope=float(slope))


@dataclass(frozen=True)
class GateResult:
    """Label frequencies before and after detector-readiness gating."""

    ungated_counts: np.ndarray = field(repr=False, compare=False)
    gated_counts: np.ndarray = field(repr=False, compare=False)
    total: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.total


def detector_gate(p1: float, p2: float, label_count: int, fracs, rng) -> GateResult:
    """Label each emission by its fractional part {x}, floor({x} * N) + 1 for
    N = `label_count`, and gate it by two independent readiness draws.

    Readiness is independent of the emission time, so conditioning on both
    devices being ready leaves the label law unchanged.  For the k parts in
    `fracs` (those `generate_trace` returns), the stream holds k draws
    against p1, then k against p2; the gate walks both blocks together, a
    chunk at a time, and leaves `rng` past all 2k doubles.  The p2 block is
    read from a copy of `rng` advanced past the p1 block, so its bit
    generator must be one whose `advance` counts doubles: PCG64 (that of
    `default_rng`) or PCG64DXSM; any other numpy bit generator is refused.
    Every argument is checked before anything is drawn: `fracs` must be
    nonempty, finite and in [0, 1).
    """
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1], got {p}")
    if label_count < 1:
        raise ValueError("label count must be >= 1")
    fracs = _checked_points(fracs)
    k = fracs.size
    ready2 = advanced_copy(rng, k)
    # every buffer is made once, one chunk long; `np.add.at` adds a chunk's
    # keys in place, so no buffer grows with the label count
    size = min(k, GATE_CHUNK)
    buf = np.empty(size)  # scaled parts, then readiness draws
    keys = np.empty(size, dtype=np.intp)  # label - 1, plus label_count if gated
    ready_both = np.empty(size, dtype=bool)
    ready_second = np.empty(size, dtype=bool)
    # bins 0 .. N-1 count the emissions turned away, N .. 2N-1 those let through
    counts = np.zeros(2 * label_count, dtype=np.int64)
    for lo in range(0, k, size):
        n = min(size, k - lo)
        part, key, ok, ok2 = buf[:n], keys[:n], ready_both[:n], ready_second[:n]
        # label - 1 = floor({x} * N) by truncation, which may round up to N
        np.multiply(fracs[lo : lo + n], label_count, out=part)
        np.copyto(key, part, casting="unsafe")
        np.minimum(key, label_count - 1, out=key)
        rng.random(out=part)
        np.less(part, p1, out=ok)
        ready2.random(out=part)
        np.less(part, p2, out=ok2)
        ok &= ok2
        # the draws are spent: the float buffer's words now hold label_count * ready
        shift = part.view(np.intp)
        np.copyto(shift, ok)
        shift *= label_count
        key += shift
        np.add.at(counts, key, 1)
    rng.bit_generator.advance(k)
    gated = counts[label_count:]
    ungated = counts[:label_count] + gated
    for arr in (ungated, gated):
        arr.setflags(write=False)
    return GateResult(ungated, gated, total=int(k), accepted=int(gated.sum()))


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
