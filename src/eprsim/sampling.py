"""Monte Carlo engine: correlation estimates and CHSH runs.

A trial draws its cell and both half-cells by inverse transform, as one
atom (cell, half_a, half_b) of mass m_c / 4 over the positive-mass cells,
from one double, so the sampler targets the exact normalized cell law.  Both
spins carry the same flip (layer sign times s(ell)), so the product A*B
depends only on the atom and is read from one table.  `run_experiment` and
`chsh` therefore take no universe, only the order n: a trial is one double,
they run in O(N) time for N trials and never draw the label, the offsets or
the interval.  The atom is found by a guide table that gives exactly what
`searchsorted` in the atom cumsum gives.

A product is +1 or -1, so a batch of N trials is summed up by P, its count
of +1 products: its mean is (2P - N) / N and its sum of squared deviations
4P(N - P) / N, and batches merge by adding counts.  A batch walks its
trials in sub-chunks that draw their doubles into one reused buffer, so no
per-trial array outlives a sub-chunk.  Streams are numpy Generators;
experiments split a seed sequence per batch of BATCH trials, and `chsh`
runs its four components, each on its own child seed, on up to
min(4, os.cpu_count()) threads, so neither the sub-chunk size nor the worker
count changes a number.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

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


# trials per batch, each on its own child stream of the run's seed
BATCH = 1_000_000
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


def run_experiment(
    n: int,
    a,
    b,
    trials: int,
    *,
    seed,
    batch_means=None,
) -> CorrelationEstimate:
    """Estimate E{A B} from `trials` draws at order `n`.

    Batches of BATCH trials use split child streams of `seed` and merge by
    adding their +1 counts, so the result depends neither on how batches
    would be scheduled nor on any summation order.  `batch_means`, if given,
    receives each batch's mean.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seed = _as_seed_sequence(seed)
    mu = build_measure(a, b, n)
    exact_target = -float(np.dot(mu.a, mu.b))
    plus = 0
    remaining = trials
    for stream in _streams_for(-(-trials // BATCH), seed):
        size = min(BATCH, remaining)
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
    """`seed` as a seed sequence.  Only an integer >= 0 or a SeedSequence is
    taken: `SeedSequence(None)` would draw OS entropy, an unrepeatable run."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer >= 0 or a SeedSequence, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    return np.random.SeedSequence(seed)


def _streams_for(n_batches, seed):
    """One stream per batch, each made only when its batch starts, so memory
    does not grow with the number of batches.  Batch i gets the i-th child of
    the seed sequence: repeated `spawn(1)` calls give the same children as
    one `spawn(n_batches)`."""
    seq = _as_seed_sequence(seed)
    return (np.random.default_rng(seq.spawn(1)[0]) for _ in range(n_batches))


def chsh(
    n: int,
    a,
    a2,
    b,
    b2,
    trials: int,
    *,
    seed,
) -> ChshEstimate:
    """Run the four correlation experiments, each on its own child seed, and
    combine them into S."""
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
