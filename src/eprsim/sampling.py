"""Monte Carlo engine: hidden-sample draws, correlation estimates, CHSH runs.

Every component is drawn by inverse transform (label, diagonal cell, offsets
within the cell, weight interval), so the sampler targets the exact
normalized cell law.  Both spins carry the same flip (layer sign times
s(ell)), so the product A*B depends only on the drawn cell and half-cells
and is read from one int8 table.  `run_experiment` and `chsh` therefore take
no universe, only the order n and the label count 2M the label draw is
bounded by: they run in O(N) time for N trials and never build, read or
search the relocations or weights.  Only `draw_batch`, which reports the
spins themselves, takes a universe and does the O(N log L) interval search,
an exact binary search in the pair's weight CDF.  The cell is found by a
guide table that gives exactly what `searchsorted` in the cell cumsum gives.

After its labels, a `run_experiment` batch's stream is one block of doubles
per draw (cell, half-cells), and a copy of the stream advanced past earlier
blocks starts any block.  So each batch copies its three block streams once
and walks its trials in sub-chunks that draw their uniforms into their slice
of the batch's one float64 product array and overwrite them with the
products (about 8 MiB per 1e6 trials in all).  Streams are numpy Generators;
experiments split a seed sequence per batch, and `chsh` runs its four
components, each on its own child seed, on up to min(4, os.cpu_count())
threads, so neither the chunk sizes nor the worker count changes a number.
"""

from __future__ import annotations

import copy
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


# trials per chunk of the label draw and of draw_batch's interval search
CHUNK = 1 << 16
# trials per sub-chunk of a products batch: its temporaries stay near 0.25 MB
SUB_CHUNK = 1 << 14
# buckets of the cell guide table: the diagonal cell law puts its mass on few
# cells (at most 12 for random settings up to n = 1e4), so the fix-up passes
# stay few (at most 6 there)
GUIDE_BUCKETS = 1024

# A batch's stream: the label block, then one block of `size` doubles per
# draw, in this order (`draw_batch` goes on with the interval uniform and the
# w offset).  PCG64 `random` takes one 64-bit word per double, so block k's
# first trial is word k*size after the labels (see `_block`).
CELL, HALF_A, HALF_B = range(3)


def _block(rng, size: int, block: int):
    """A copy of `rng` whose next doubles are block `block` of the blocks of
    `size` doubles that start where `rng` stands (for a batch, just after its
    label block).  `rng` itself does not move."""
    stream = copy.deepcopy(rng)
    stream.bit_generator.advance(block * size)
    return stream


class _CellGuide:
    """Exact `np.searchsorted(cum, t, side="right")` in the unnormalized cell
    cumsum for targets t = u * cum[-1], u in [0, 1), by a guide table.

    Each run of equal cum values (zero-mass cells) collapses to the one
    positive-mass cell that starts the next run: `runs(t)` counts the distinct
    values <= t, and `cells[run]` is the cell searchsorted finds, so a
    zero-mass cell is never drawn.  Values and targets share one monotone
    float map to buckets, floor(x * scale); the values in buckets below a
    target's bucket are <= it and those above are > it, so `lower[bucket]`
    bounds the count from below and `passes`, the most values in one bucket,
    fix-up steps reach it exactly."""

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
        # a sentinel above every target stops the fix-up after the last value
        self.bounds = np.append(bounds, np.inf)

    def _bucket(self, x: np.ndarray) -> np.ndarray:
        return (x * self.scale).astype(np.intp)  # x >= 0: truncation is floor

    def runs(self, target: np.ndarray) -> np.ndarray:
        run = self.lower[self._bucket(target)]
        for _ in range(self.passes):
            run += self.bounds[run] <= target
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


def _products(label_count: int, mu: BaseMeasure, size: int, rng) -> np.ndarray:
    """The product A*B of each of `size` trials as one float64 array, in
    O(size) time; SUB_CHUNK changes no number.

    Both spins carry the same flip (layer sign times s(ell)), so the product
    is outcome[0, cell, half_a] * outcome[1, cell, half_b]: it depends on the
    drawn cell and half-cells only, never on the label, interval or
    relocation.  It is read from one int8 [run, half_a, half_b] table over
    the positive-mass cells.  The labels are drawn only to keep the stream in
    step with `draw_batch` (bounded `integers` takes a data-dependent number
    of words) and dropped; the interval uniform, a later block, is never
    drawn.  `rng` moves past the labels only: each batch has its own stream."""
    # int32 labels take the same bounded 32-bit words as draw_batch's int64
    # ones and halve the temporary; counts past int32 keep int64
    dtype = np.int32 if label_count <= np.iinfo(np.int32).max else np.int64
    for lo in range(0, size, CHUNK):
        rng.integers(0, label_count, size=min(CHUNK, size - lo), dtype=dtype)
    guide = _CellGuide(mu.cell_masses)
    table = (mu.outcome[0][guide.cells, :, None] * mu.outcome[1][guide.cells, None, :]).ravel()
    prod = np.empty(size)
    # the three block streams are copied once; each sub-chunk draws its
    # uniforms into its own slice of prod and overwrites them with products
    cell, half_a, half_b = (_block(rng, size, k) for k in (CELL, HALF_A, HALF_B))
    for start in range(0, size, SUB_CHUNK):
        part = prod[start : start + SUB_CHUNK]
        cell.random(out=part)
        part *= guide.total
        key = guide.runs(part)
        for half in (half_a, half_b):
            half.random(out=part)
            key <<= 1
            key |= part >= 0.5
        part[:] = table[key]
    return prod


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
    # the stream in block order: labels, cell, du, dv, interval uniform, w offset
    m0 = rng.integers(0, universe.label_count, size=size)
    guide = _CellGuide(mu.cell_masses)
    target = rng.random(size)
    target *= guide.total
    cellpos = guide.cells[guide.runs(target)]
    du, dv, interval_u, dw = (rng.random(size) for _ in range(4))
    spin_a, spin_b, ell0 = _fill_spins(universe, mu, m0, cellpos, du >= 0.5, dv >= 0.5, interval_u)
    pair = m0 >> 1
    cols = universe.col_to[pair, cellpos] - 2
    rows = universe.row_to[pair, cellpos] - 2
    # bins: interval ell0 of w, and half-cells [j/2, (j+1)/2) of u and v,
    # where cell i spans [i - 1, i)
    return {
        "m": m0 + 1,
        "cell": cellpos - 2,
        "ell": ell0 + 1,
        "u": _inside(cols - 1.0 + du, 2 * cols - 2 + (du >= 0.5), 2),
        "v": _inside(rows - 1.0 + dv, 2 * rows - 2 + (dv >= 0.5), 2),
        "w": _inside((ell0 + dw) / universe.interval_count, ell0, universe.interval_count),
        "spin_a": spin_a.astype(float),
        "spin_b": spin_b.astype(float),
    }


def run_experiment(
    n: int,
    label_count: int,
    a,
    b,
    trials: int,
    seed=None,
    batch_size: int = 1_000_000,
    batch_means=None,
) -> CorrelationEstimate:
    """Estimate E{A B} from `trials` draws at order `n` over `label_count`
    labels (2M for a universe of M companion pairs).

    Batches use split child streams of `seed` and a fixed merge order
    (count/mean/M2), so the result does not depend on how batches would be
    scheduled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if label_count < 1:
        raise ValueError(f"label_count must be >= 1, got {label_count}")
    mu = build_measure(a, b, n)
    exact_target = -float(np.dot(mu.a, mu.b))
    streams = _streams_for(trials, batch_size, seed)

    count = 0
    mean = 0.0
    m2 = 0.0
    remaining = trials
    for stream in streams:
        size = min(batch_size, remaining)
        # one whole float64 array: its pairwise sums are what the stderr pins
        prod = _products(label_count, mu, size, stream)
        b_count = prod.size
        b_mean = float(prod.mean())
        prod -= b_mean
        np.square(prod, out=prod)
        b_m2 = float(prod.sum())
        if batch_means is not None:
            batch_means.append(b_mean)
        delta = b_mean - mean
        total = count + b_count
        m2 += b_m2 + delta * delta * count * b_count / total
        mean += delta * b_count / total
        count = total
        remaining -= size
    stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return CorrelationEstimate(mean=mean, stderr=stderr, trials=count, exact_target=exact_target)


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
    label_count: int,
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
            pool.submit(run_experiment, n, label_count, x, y, trials, seed=child)
            for (x, y), child in zip(pairs, children)
        ]
        runs = [future.result() for future in futures]
    e_ab, e_ab2, e_a2b, e_a2b2 = runs
    s_value = abs(e_ab.mean - e_ab2.mean) + abs(e_a2b.mean + e_a2b2.mean)
    stderr = math.sqrt(sum(r.stderr**2 for r in runs))
    return ChshEstimate(s_value=s_value, stderr=stderr, components=tuple(runs))
