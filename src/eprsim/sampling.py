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
an exact binary search in the pair's weight CDF.  A `run_experiment` batch
peaks near 11 bytes per trial (10.5 MB for 1e6 trials): each draw is
narrowed as soon as it is made.  Streams are numpy Generators;
experiments split a seed sequence per batch, and `chsh` runs its four
components, each on its own child seed, on up to min(4, os.cpu_count())
threads, so neither the chunk size nor the worker count changes a number.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

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


# trials per chunk of the post-draw work: its temporaries stay near 0.5 MB each
CHUNK = 1 << 16


class _Draws(NamedTuple):
    """A batch's draws, narrowed: pair index m0 >> 1, label parity, cell
    position, the half-cells of u and v, and the interval uniform (pair,
    parity and interval uniform are None where only products are asked)."""

    pair: np.ndarray | None
    odd: np.ndarray | None
    cellpos: np.ndarray
    upper_a: np.ndarray
    upper_b: np.ndarray
    interval_u: np.ndarray | None


def _draw(
    label_count: int, mu: BaseMeasure, size: int, rng, *, spins=True, offsets=None
) -> _Draws:
    """Make a batch's draws in stream order: label, cell, offsets du and dv
    within the cell, interval uniform.  Each draw is narrowed as soon as it
    is made, so the batch keeps at most 9 bytes per trial besides the float64
    interval uniform; `offsets`, if given, receives the float du and dv.

    With `spins` false the label is drawn and dropped (bounded `integers`
    takes a data-dependent number of words, so skipping it would shift the
    later draws) and the interval uniform, the stream's last draw, is not
    made at all: the product A*B depends on neither."""
    m0 = rng.integers(0, label_count, size=size)
    odd = (m0 & 1).astype(bool) if spins else None
    pair = (m0 >> 1).astype(np.min_scalar_type(label_count // 2)) if spins else None
    del m0
    # search u * cum[-1] < cum[-1] in the unnormalized cumsum: the first cell
    # whose cumulative mass exceeds it has positive mass, trailing cells too
    cum = np.cumsum(mu.cell_masses)
    target = rng.random(size)
    target *= cum[-1]
    cellpos = np.empty(size, dtype=np.min_scalar_type(cum.size))
    for lo in range(0, size, CHUNK):
        cellpos[lo : lo + CHUNK] = np.searchsorted(cum, target[lo : lo + CHUNK], side="right")
    del target
    upper = []
    for _ in range(2):
        offset = rng.random(size)
        upper.append(offset >= 0.5)
        if offsets is not None:
            offsets.append(offset)
        del offset
    return _Draws(pair, odd, cellpos, *upper, rng.random(size) if spins else None)


def _fill_spins(universe: LayerUniverse, mu: BaseMeasure, drawn: _Draws, spin_a, spin_b, ell0):
    """Write the int8 spins and the interval index of each drawn trial, CHUNK
    trials at a time; no trial's result depends on the chunking."""
    # companions share their pair's weight row
    cdf = np.cumsum(universe.weights, axis=1)
    table_a = mu.outcome[0].ravel()
    table_b = mu.outcome[1].ravel()
    for lo in range(0, drawn.pair.size, CHUNK):
        part = slice(lo, lo + CHUNK)
        ell = _interval_search(cdf, drawn.pair[part].astype(np.intp), drawn.interval_u[part])
        # the sample always lands on a relocated diagonal ensemble, whose
        # original column and row position is the ensemble position itself,
        # so the spins read outcome[side, cellpos, half]; the layer sign (+1
        # for even m0) times s(ell) = (-1)^(ell0+1) is -1 iff the parities of
        # m0 and ell0 agree
        flip = (((drawn.odd[part] ^ ell) & 1) * 2 - 1).astype(np.int8)
        cell = 2 * drawn.cellpos[part].astype(np.intp)
        np.multiply(flip, table_a[cell + drawn.upper_a[part]], out=spin_a[part])
        np.multiply(flip, table_b[cell + drawn.upper_b[part]], out=spin_b[part])
        ell0[part] = ell


def _products(label_count: int, mu: BaseMeasure, size: int, rng) -> np.ndarray:
    """The int8 product A*B of each of `size` trials, in O(size) time.

    Both spins carry the same flip (layer sign times s(ell)), so the product
    is outcome[0, cell, half_a] * outcome[1, cell, half_b]: it depends on the
    drawn cell and half-cells only, never on the label, interval or
    relocation.  It is read from one [cell, half_a, half_b] table; the label
    count only bounds the label draw that keeps the stream in step with
    `draw_batch`."""
    drawn = _draw(label_count, mu, size, rng, spins=False)
    table = (mu.outcome[0][:, :, None] * mu.outcome[1][:, None, :]).ravel()
    key = drawn.cellpos.astype(np.min_scalar_type(table.size - 1))
    key <<= 1
    key |= drawn.upper_a
    key <<= 1
    key |= drawn.upper_b
    return table[key]


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
    offsets = []
    drawn = _draw(universe.label_count, mu, size, rng, offsets=offsets)
    du, dv = offsets
    dw = rng.random(size)  # offset of w within its interval; run_experiment needs none
    spin_a = np.empty(size, dtype=np.int8)
    spin_b = np.empty(size, dtype=np.int8)
    ell0 = np.empty(size, dtype=np.intp)
    _fill_spins(universe, mu, drawn, spin_a, spin_b, ell0)
    pair = drawn.pair.astype(np.intp)
    cellpos = drawn.cellpos.astype(np.intp)
    cols = universe.col_to[pair, cellpos] - 2
    rows = universe.row_to[pair, cellpos] - 2
    # bins: interval ell0 of w, and half-cells [j/2, (j+1)/2) of u and v,
    # where cell i spans [i - 1, i)
    return {
        "m": 2 * pair + drawn.odd + 1,
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
        prod = _products(label_count, mu, size, stream).astype(float)
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
