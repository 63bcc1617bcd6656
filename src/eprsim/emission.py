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
parts, in an array the caller owns.  `prefix_discrepancies` sorts a trace in
place, each prefix in turn and the whole trace last, reads every D* and the
whole trace's D off the sorted points chunk by chunk, and counts the labels
floor({x} * N) + 1 of the sorted whole with one search per label edge: the
label is monotone in x, so no point is labelled one by one.
`detector_gate` takes those label counts, gates the emissions in label
order, two 16-bit lanes of the stream (see `streams`) per emission, and
returns the gated counts.  Every chunked pass takes `CHUNK` emissions (or
label edges) at a time, so `poisson` holds one array of k floats, beside
about 0.3 MiB of one-chunk buffers at any k.

The package imports only numpy and the standard library when it loads.
scipy serves one function, `chi_square_quantile` (the `poisson` command),
which imports `scipy.special` when called; so no other command loads scipy,
and `poisson` loads `scipy.special` but not `scipy.stats`.
"""

from __future__ import annotations

import math

import numpy as np

from .streams import fixed_words, lanes

# emissions per chunk of the trace kernel, the discrepancy scan and the
# detector gate, and label edges per block of the label count: each pass's
# scratch (the scan's two float64 buffers, the gate's buffers and lane words
# at 11 bytes per emission) stays near 0.25 MiB at any k while `poisson`
# holds a trace beside it; an even count, so a gate chunk starts on a word,
# below 2**16, so a label's run in a chunk fits the gate's uint16 reduceat
CHUNK = 1 << 14


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


def _ascending_parts(pts: np.ndarray) -> tuple[float, float]:
    """The one-sided parts D+ = max_i (i/k - x_(i)) and
    D- = max_i (x_(i) - (i-1)/k), each at least 0, of points of [0, 1) in
    ascending order."""
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
    return d_plus, d_minus


def _label_edges(j: np.ndarray, label_count: int) -> np.ndarray:
    """t_j, the least double x with fl(x * N) >= j, for each whole float j
    in 1 .. N - 1.  fl(j / N) lies within half an ulp of j / N, so t_j is
    a few ulp steps from it."""
    edge = j / label_count
    while (low := edge * label_count < j).any():
        np.copyto(edge, np.nextafter(edge, 1.0), where=low)
    while True:
        below = np.nextafter(edge, 0.0)
        high = below * label_count >= j
        if not high.any():
            return edge
        np.copyto(edge, below, where=high)


def _label_counts(pts: np.ndarray, label_count: int) -> np.ndarray:
    """How many of the ascending points carry each label floor(x * N) + 1,
    floor(fl(x * N)) capped at N - 1.  That is monotone in x, so the points
    of labels 1 .. j are those below t_j (`_label_edges`): one search of
    the sorted points per edge, made CHUNK edges at a time."""
    counts = np.empty(label_count, dtype=np.int64)
    below = 0  # points below the last edge searched, t_0 = 0 at first
    for lo in range(1, label_count, CHUNK):
        j = np.arange(lo, min(lo + CHUNK, label_count), dtype=float)
        found = np.searchsorted(pts, _label_edges(j, label_count))
        counts[lo - 1 : lo - 1 + found.size] = np.diff(found, prepend=below)
        below = int(found[-1])
    counts[-1] = pts.size - below
    return counts


def prefix_discrepancies(
    fracs, ks, label_count: int = 1
) -> tuple[list[float], float, np.ndarray]:
    """The D* of each prefix of `fracs` of the ascending sizes `ks`, the
    whole set's extreme discrepancy D = D+ + D- over all half-open
    subintervals of [0, 1) (Niederreiter 1992, ch. 2), and its count of each
    label floor(x * N) + 1 for N = `label_count`, capped at N.  The whole
    set's D* is the last of the stars when `ks` ends at its size.

    A float64 `fracs` (the array `generate_trace` returns) is sorted in
    place, each prefix in turn and the whole last: a prefix holds the same
    points however a shorter one was reordered, so its D* is that of the
    caller's prefix.  The points are checked once, on entry: they must be
    nonempty, finite and in [0, 1), and `ks` must ascend strictly within
    1 .. k."""
    pts = np.asarray(fracs, dtype=float).reshape(-1)
    if pts.size == 0:
        raise ValueError("point set must be nonempty")
    # min and max are NaN if any point is, which fails both comparisons
    if not (pts.min() >= 0.0 and pts.max() < 1.0):
        raise ValueError("points must be finite and lie in [0, 1)")
    ks = [int(size) for size in ks]
    if any(a >= b for a, b in zip([0, *ks], [*ks, pts.size + 1])):
        raise ValueError(f"prefix sizes must ascend strictly within 1 .. {pts.size}, got {ks}")
    if label_count < 1:
        raise ValueError("label count must be >= 1")
    stars = []
    for size in ks:
        if size < pts.size:
            pts[:size].sort()
            stars.append(max(_ascending_parts(pts[:size])))
    pts.sort()
    d_plus, d_minus = _ascending_parts(pts)
    if ks and ks[-1] == pts.size:
        stars.append(max(d_plus, d_minus))
    return stars, d_plus + d_minus, _label_counts(pts, label_count)


def fit_rate(ks, star_values) -> float:
    """The slope of the least-squares line through (log k, log D*)."""
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
    return float(slope)


def _readiness(name: str, p: float) -> tuple[int, int]:
    """c >> 37 and c mod 2**37 for c = ceil(p * 2**53), the count of 53-bit
    numerators x with x * 2**-53 < p (the scaling is exact)."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {p}")
    c = math.ceil(p * 2.0**53)
    return c >> 37, c & ((1 << 37) - 1)


def detector_gate(p1: float, p2: float, label_counts, rng) -> np.ndarray:
    """The read-only count per label of the emissions counted per label in
    `label_counts` that pass two independent readiness draws, against p1
    and p2, visited in label order: readiness is independent of the
    emission time, so that leaves the label law unchanged.

    A draw u = x * 2**-53 is below p iff its 53-bit numerator x is below
    c = ceil(p * 2**53), which x's top 16 bits decide unless they equal
    c >> 37 (Knuth and Yao).  Its fixed words hold the 2k lanes and its
    refinement words one per lane at a bound, in lane order (see
    `streams`).  Emission t reads, as those bits, lane 2t against p1 and
    lane 2t + 1 against p2.  A lane equal to c >> 37, when c mod 2**37 != 0,
    takes the next refinement word r and is ready iff r >> 27 < c mod 2**37.
    So a draw is ready with probability c / 2**53, as a double of
    `Generator.random` below p.

    The bit generator of `rng` must be PCG64 or PCG64DXSM, whose `advance`
    counts 64-bit words; any other numpy bit generator is refused.  Every
    argument is checked before anything is drawn: the counts must be a
    nonempty 1-d array of integers >= 0 holding at least one emission."""
    stations = [_readiness("p1", p1), _readiness("p2", p2)]
    counts = np.asarray(label_counts)
    if counts.ndim != 1 or counts.size == 0 or counts.dtype.kind not in "iu":
        raise ValueError("label counts must be a nonempty 1-d array of integers")
    counts = counts.astype(np.int64, copy=False)
    if counts.min() < 0:
        raise ValueError("label counts must be >= 0")
    ends = np.cumsum(counts)  # the end of each label's run of emissions
    k = int(ends[-1])
    if k < 1:
        raise ValueError("label counts must hold at least one emission")
    fixed = fixed_words(rng, -(-k // 2))  # the words of 2k lanes
    # lane 2t + s is station s's lane of emission t, ready below its bound
    # c >> 37.  The bound 2**16 of p = 1 fits no lane: it is held as 0xFFFF,
    # where lanes pass without a word.  p < 2**-16 has bound 0, which no lane
    # is below, and c mod 2**37 = c != 0, so each lane at 0 takes a word
    size = min(k, CHUNK)
    bound = np.tile(np.array([min(top, 0xFFFF) for top, _ in stations], dtype=np.uint16), size)
    at_bound = np.array([top > 0xFFFF or rem > 0 for top, rem in stations])
    settle = bool(at_bound.any())
    rems = np.array([rem for _, rem in stations], dtype=np.uint64)
    ready = np.empty(2 * size, dtype=bool)
    both = np.empty(size, dtype=bool)
    gated = np.zeros(counts.size, dtype=np.int64)
    for lo in range(0, k, size):
        n = min(size, k - lo)
        drawn = lanes(fixed, 2 * n)
        ok, thresholds = ready[: 2 * n], bound[: 2 * n]
        if settle:  # the lanes at a bound that the compare does not decide
            at = np.flatnonzero(np.equal(drawn, thresholds, out=ok))
            at = at[at_bound[at & 1]]
        np.less(drawn, thresholds, out=ok)
        if settle and at.size:
            rem = rems[at & 1]
            word = rem > 0
            draws = rng.bit_generator.random_raw(int(np.count_nonzero(word)))
            ok[at] = True  # the lanes of p = 1; the others are decided next
            ok[at[word]] = draws >> 27 < rem[word]
        # an emission's two lanes, read as one uint16, are 0x0101 iff both passed
        np.equal(ok.view(np.uint16), 0x0101, out=both[:n])
        first, last = np.searchsorted(ends, (lo, lo + n - 1), side="right")
        labels = first + np.flatnonzero(counts[first : last + 1])
        starts = np.maximum(ends[labels] - counts[labels] - lo, 0)
        # a run in a chunk holds at most CHUNK < 2**16 emissions
        gated[labels] += np.add.reduceat(both[:n].view(np.uint8), starts, dtype=np.uint16)
    gated.setflags(write=False)
    return gated


def uniform_chi_square(counts) -> tuple[float, int]:
    """Chi-square statistic and dof against the uniform label law, with one
    float temporary of the counts' size: integer counts convert exactly."""
    counts = np.asarray(counts)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty counts")
    expected = total / counts.size
    dev = np.subtract(counts, expected, dtype=float)
    np.square(dev, out=dev)
    dev /= expected
    return float(dev.sum()), counts.size - 1


def chi_square_quantile(level: float, dof: int) -> float:
    """Quantile at `level` (e.g. 0.999) of the chi-square distribution with
    `dof` degrees of freedom: 2 * P^-1(dof/2, level), P the regularized lower
    incomplete gamma function, the expression `scipy.stats.chi2.ppf`
    evaluates, so the value is the same to the bit."""
    from scipy.special import gammaincinv

    return float(2 * gammaincinv(dof / 2, level))
