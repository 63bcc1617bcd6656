"""Monte Carlo engine: hidden-sample draws, correlation estimates, CHSH runs.

Every component is drawn by inverse transform (diagonal cell and half-cells,
label, offsets within the half-cells, weight interval), so the sampler
targets the exact normalized cell law.  The cell and its two half-cells are
drawn as one atom (cell, half_a, half_b) of mass m_c / 4 over the
positive-mass cells, from one double.  Both spins carry the same flip (layer
sign times s(ell)), so the product A*B depends only on the atom and is read
from one table.  `run_experiment` and `chsh` therefore take no universe,
only the order n: a trial is one double, they run in O(N) time for N trials
and never build, read or search the labels, relocations or weights.  Only
`draw_batch`, which reports the spins themselves, takes a universe and does
the O(N log L) interval search, an exact binary search in the pair's weight
CDF.  The atom is found by a guide table that gives exactly what
`searchsorted` in the atom cumsum gives.

A product is +1 or -1, so a batch of N trials is summed up by P, its count
of +1 products: its mean is (2P - N) / N and its sum of squared deviations
4P(N - P) / N, and batches merge by adding counts.  A batch walks its
trials in sub-chunks that draw their doubles into one reused buffer, so no
per-trial array outlives a sub-chunk.  Streams are numpy Generators;
experiments split a seed sequence per batch, and `chsh` runs its four
components, each on its own child seed, on up to min(4, os.cpu_count())
threads, so neither the chunk sizes nor the worker count changes a number.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .layers import LayerUniverse
from .measure import BaseMeasure, build_measure


@dataclass(frozen=True)
class CorrelationEstimate:
    mean: float
    stderr: float
    trials: int
    exact_target: float

    @property
    def abs_error(self) -> float:
        return abs(self.mean - self.exact_target)


@dataclass(frozen=True)
class ChshEstimate:
    """CHSH statistic S = |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|."""

    s_value: float
    stderr: float
    components: tuple[CorrelationEstimate, CorrelationEstimate, CorrelationEstimate, CorrelationEstimate]


def _interval_search(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per trial t, the count of entries of cdf[rows[t]] that are <= u[t] times
    the row's total: a branchless binary search of about log2 L gathers, with
    no [trials, L] temporary.

    Every comparison is between a stored CDF value and the target (adding a
    row offset to the CDF, as one flat `searchsorted` would, rounds low bits
    away and flips some).  Scaling by the total keeps the target below it and
    `<=` skips zero weights at u = 0, so the count is an interval of positive
    weight even where leading or trailing weights are zero."""
    width = cdf.shape[1]
    flat = cdf.ravel()
    start = rows * width
    base = start.copy()
    target = u * flat[start + width - 1]
    span = width
    while span > 1:
        half = span // 2
        base += (flat[base + half] <= target) * half
        span -= half
    return base - start + (flat[base] <= target)


# trials per chunk of draw_batch's interval search
CHUNK = 1 << 16
# trials per sub-chunk of a batch: its buffer and temporaries stay near 0.4 MiB
SUB_CHUNK = 1 << 14
# buckets of the guide table: the diagonal cell law puts its mass on few
# cells (at most 12 for random settings up to n = 1e4, so 48 atoms), so few
# targets fall in a bucket that holds a value and needs the fix-up passes
GUIDE_BUCKETS = 1024


class _CellGuide:
    """Exact `np.searchsorted(cum, t, side="right")` in the unnormalized
    cumsum of `masses` for targets t = u * cum[-1], u in [0, 1), by a guide
    table.

    Each run of equal cum values (a zero mass, or one too small to move the
    sum) collapses to the one entry that starts the next run: `runs(t)`
    counts the distinct values <= t, and `cells[run]` is the entry
    searchsorted finds, so a zero-mass entry is never drawn.  Values and
    targets share one monotone float map to buckets, floor(x * scale); the
    values in buckets below a target's bucket are <= it and those above are
    > it, so `lower[bucket]` is the count where the bucket holds no value
    and bounds it from below where it does (`mixed`); there `passes`, the
    most values in one bucket, fix-up steps reach it exactly."""

    def __init__(self, masses: np.ndarray):
        cum = np.cumsum(masses)
        self.total = cum[-1]
        rises = np.empty(cum.size, dtype=bool)
        rises[0] = cum[0] > 0.0
        np.greater(cum[1:], cum[:-1], out=rises[1:])
        self.cells = np.flatnonzero(rises)
        bounds = cum[self.cells]
        del cum
        self.scale = GUIDE_BUCKETS / self.total
        counts = np.bincount(self._bucket(bounds), minlength=GUIDE_BUCKETS + 1)
        self.passes = int(counts.max())
        self.lower = np.concatenate(([0], np.cumsum(counts)))
        self.mixed = counts > 0
        # a sentinel above every target stops the fix-up after the last value
        self.bounds = np.append(bounds, np.inf)

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        return (x * self.scale).astype(np.intp)  # x >= 0: truncation is floor

    def runs(self, target: np.ndarray) -> np.ndarray:
        bucket = self._bucket(target)
        run = self.lower[bucket]
        # only the targets in mixed buckets, which span at most
        # len(bounds) / GUIDE_BUCKETS of the range, need the fix-up
        (mixed,) = np.nonzero(self.mixed[bucket])
        part, fix = target[mixed], run[mixed]
        for _ in range(self.passes):
            fix += self.bounds[fix] <= part
        run[mixed] = fix
        return run


def _fill_spins(universe: LayerUniverse, mu: BaseMeasure, m0, cellpos, upper_a, upper_b, interval_u):
    """The int8 spins and the interval index of each drawn trial, CHUNK trials
    at a time; no trial's result depends on the chunking."""
    # companions share their pair's weight row
    cdf = np.cumsum(universe.weights, axis=1)
    table_a = mu.outcome[0].ravel()
    table_b = mu.outcome[1].ravel()
    spin_a = np.empty(m0.size, dtype=np.int8)
    spin_b = np.empty(m0.size, dtype=np.int8)
    ell0 = np.empty(m0.size, dtype=np.intp)
    for lo in range(0, m0.size, CHUNK):
        part = slice(lo, lo + CHUNK)
        ell = _interval_search(cdf, m0[part] >> 1, interval_u[part])
        # the sample always lands on a relocated diagonal ensemble, whose
        # original column and row position is the ensemble position itself,
        # so the spins read outcome[side, cellpos, half]; the layer sign (+1
        # for even m0) times s(ell) = (-1)^(ell0+1) is -1 iff the parities of
        # m0 and ell0 agree
        flip = (((m0[part] ^ ell) & 1) * 2 - 1).astype(np.int8)
        cell = 2 * cellpos[part]
        np.multiply(flip, table_a[cell + upper_a[part]], out=spin_a[part])
        np.multiply(flip, table_b[cell + upper_b[part]], out=spin_b[part])
        ell0[part] = ell
    return spin_a, spin_b, ell0


def _atoms(mu: BaseMeasure) -> tuple[np.ndarray, _CellGuide]:
    """The positive-mass cell positions and the guide over their atoms: atom
    4i + 2 half_a + half_b is (cell pos[i], half_a, half_b), of mass
    m_c / 4 (dividing by 4 is exact).  Zero-mass cells get no atom, so the
    guide's tables stay small at any n."""
    pos = np.flatnonzero(mu.cell_masses)
    return pos, _CellGuide(np.repeat(mu.cell_masses[pos] / 4, 4))


def _plus_count(mu: BaseMeasure, size: int, rng) -> int:
    """How many of `size` trials have product A*B = +1, in O(size) time from
    `size` doubles of `rng`; SUB_CHUNK changes no number.

    Both spins carry the same flip (layer sign times s(ell)), so the product
    is outcome[0, cell, half_a] * outcome[1, cell, half_b]: it depends on the
    drawn atom only, never on the label, interval or relocation, none of
    which is drawn.  Whether it is +1 is read from one table over the
    guide's runs."""
    pos, guide = _atoms(mu)
    product = mu.outcome[0][pos, :, None] * mu.outcome[1][pos, None, :]
    plus = product.ravel()[guide.cells] > 0
    buf = np.empty(min(size, SUB_CHUNK))
    count = 0
    for start in range(0, size, SUB_CHUNK):
        part = buf[: min(SUB_CHUNK, size - start)]
        rng.random(out=part)
        part *= guide.total
        count += int(np.count_nonzero(plus[guide.runs(part)]))
    return count


def _inside(x: np.ndarray, bins: np.ndarray, scale: int) -> np.ndarray:
    """Step each x to the nearest double with floor(x * scale) == its bin:
    adding or dividing an offset can round onto the neighbouring bin."""
    while np.any(out := np.floor(x * scale) != bins):
        x[out] = np.nextafter(x[out], (bins[out] + 0.5) / scale)
    return x


def draw_batch(universe: LayerUniverse, a, b, size: int, rng: np.random.Generator):
    """Vectorized draws: dict of arrays (labels are 1-based, coords absolute).

    Each coordinate lies in what was drawn for it: floor(w * L) == ell - 1,
    and u and v lie in the sampled half-cell of the relocated column and row,
    so the layer outcomes at (u, v, w) are the sampled spins."""
    mu = build_measure(a, b, universe.n)
    # the stream in block order: atom, labels, du, dv, interval uniform, w offset
    pos, guide = _atoms(mu)
    target = rng.random(size)
    target *= guide.total
    atom = guide.cells[guide.runs(target)]
    cellpos = pos[atom >> 2]
    upper_a = (atom >> 1) & 1
    upper_b = atom & 1
    m0 = rng.integers(0, universe.label_count, size=size)
    du, dv, interval_u, dw = (rng.random(size) for _ in range(4))
    spin_a, spin_b, ell0 = _fill_spins(universe, mu, m0, cellpos, upper_a, upper_b, interval_u)
    pair = m0 >> 1
    cols = universe.col_to[pair, cellpos] - 2
    rows = universe.row_to[pair, cellpos] - 2
    # bins: interval ell0 of w, and half-cells [j/2, (j+1)/2) of u and v,
    # where cell i spans [i - 1, i)
    return {
        "m": m0 + 1,
        "cell": cellpos - 2,
        "ell": ell0 + 1,
        "u": _inside(cols - 1.0 + (upper_a + du) / 2, 2 * cols - 2 + upper_a, 2),
        "v": _inside(rows - 1.0 + (upper_b + dv) / 2, 2 * rows - 2 + upper_b, 2),
        "w": _inside((ell0 + dw) / universe.interval_count, ell0, universe.interval_count),
        "spin_a": spin_a.astype(float),
        "spin_b": spin_b.astype(float),
    }


def run_experiment(
    n: int,
    a,
    b,
    trials: int,
    seed=None,
    batch_size: int = 1_000_000,
    batch_means=None,
) -> CorrelationEstimate:
    """Estimate E{A B} from `trials` draws at order `n`.

    Batches use split child streams of `seed` and merge by adding their +1
    counts, so the result depends neither on how batches would be scheduled
    nor on any summation order.  `batch_means`, if given, receives each
    batch's mean.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    mu = build_measure(a, b, n)
    exact_target = -float(np.dot(mu.a, mu.b))
    plus = 0
    remaining = trials
    for stream in _streams_for(trials, batch_size, seed):
        size = min(batch_size, remaining)
        b_plus = _plus_count(mu, size, stream)
        if batch_means is not None:
            batch_means.append((2 * b_plus - size) / size)
        plus += b_plus
        remaining -= size
    # mean (2P - N) / N and, from M2 = 4P(N - P) / N, the stderr
    # sqrt(M2 / (N - 1) / N): each one correctly rounded integer ratio
    mean = (2 * plus - trials) / trials
    var = 4 * plus * (trials - plus) / (trials * trials * (trials - 1)) if trials > 1 else 0.0
    return CorrelationEstimate(
        mean=mean, stderr=math.sqrt(var), trials=trials, exact_target=exact_target
    )


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _streams_for(trials, batch_size, seed):
    """One stream per batch, each made only when its batch starts, so memory
    does not grow with the number of batches.  Batch i gets the i-th child of
    the seed sequence: repeated `spawn(1)` calls give the same children as
    one `spawn(n_batches)`."""
    n_batches = (trials + batch_size - 1) // batch_size
    if seed is None:
        raise ValueError("provide an explicit seed")
    seq = _as_seed_sequence(seed)
    return (np.random.default_rng(seq.spawn(1)[0]) for _ in range(n_batches))


def chsh(
    n: int,
    a,
    a2,
    b,
    b2,
    trials: int,
    seed=None,
) -> ChshEstimate:
    """Run the four correlation experiments, each on its own child seed, and
    combine them into S."""
    if seed is None:
        raise ValueError("provide an explicit seed")
    children = _as_seed_sequence(seed).spawn(4)
    pairs = ((a, b), (a, b2), (a2, b), (a2, b2))
    # numpy releases the GIL in the draws, searches, gathers and ufuncs; each
    # component's numbers depend only on its child seed, not on the thread
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        futures = [
            pool.submit(run_experiment, n, x, y, trials, seed=child)
            for (x, y), child in zip(pairs, children)
        ]
        runs = [future.result() for future in futures]
    e_ab, e_ab2, e_a2b, e_a2b2 = runs
    s_value = abs(e_ab.mean - e_ab2.mean) + abs(e_a2b.mean + e_a2b2.mean)
    stderr = math.sqrt(sum(r.stderr**2 for r in runs))
    return ChshEstimate(s_value=s_value, stderr=stderr, components=tuple(runs))
