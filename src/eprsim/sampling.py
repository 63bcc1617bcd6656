"""Monte Carlo engine: hidden-sample draws, correlation estimates, CHSH runs.

Every component is drawn by inverse transform (label, diagonal cell, offsets
within the cell, weight interval), so the sampler targets the exact
normalized cell law.  Streams are numpy Generators; experiments split a seed
sequence per batch so results are reproducible and order-independent under
parallel evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import LayerUniverse
from .measure import BaseMeasure, build_measure


@dataclass(frozen=True)
class HiddenSample:
    """One realization of (label, station-1, station-2, source) coordinates."""

    m: int
    u: float
    v: float
    w: float


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


def _batch_arrays(
    universe: LayerUniverse, mu: BaseMeasure, size: int, rng: np.random.Generator
):
    """Vectorized draw of `size` trials; returns (m0, cellpos, du, dv, ell0, w, spin_a, spin_b)."""
    labels = universe.label_count
    # search u * cum[-1] < cum[-1] in the unnormalized cumsum: the first cell
    # whose cumulative mass exceeds it has positive mass, trailing cells too
    cum = np.cumsum(mu.cell_masses)

    m0 = rng.integers(0, labels, size=size)
    cellpos = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
    du = rng.random(size)
    dv = rng.random(size)
    # per-label CDF rows (companions share their pair's row)
    wcdf = np.repeat(np.cumsum(universe.weights, axis=1), 2, axis=0)
    ell0 = (rng.random(size)[:, None] > wcdf[m0]).sum(axis=1)
    ell0 = np.minimum(ell0, universe.interval_count - 1)
    w = (ell0 + rng.random(size)) / universe.interval_count

    # the sample always lands on a relocated diagonal ensemble, whose original
    # column and row index is the ensemble index itself
    origin = cellpos - 2
    neg = origin <= 0
    a_prof = np.where(du < 0.5, -1.0, 1.0)
    b_prof = np.where(dv < 0.5, 1.0, -1.0)
    a_neg = np.where(mu.a[np.where(neg, -origin, 0)] >= 0.0, 1.0, -1.0)
    b_neg = np.where(mu.b[np.where(neg, -origin, 0)] >= 0.0, -1.0, 1.0)
    a_prof = np.where(neg, a_neg, a_prof)
    b_prof = np.where(neg, b_neg, b_prof)

    signs = np.where(m0 & 1, -1.0, 1.0)  # odd labels (even m0) are originals
    s_val = np.where((ell0 + 1) % 2 == 1, -1.0, 1.0)
    spin_a = signs * a_prof * s_val
    spin_b = signs * b_prof * s_val
    return m0, cellpos, du, dv, ell0, w, spin_a, spin_b


def draw(
    universe: LayerUniverse, a, b, rng: np.random.Generator
) -> tuple[HiddenSample, float, float]:
    """Draw one hidden sample and the two spin outcomes."""
    mu = build_measure(a, b, universe.n)
    m0, cellpos, du, dv, _, w, spin_a, spin_b = _batch_arrays(universe, mu, 1, rng)
    m = int(m0[0]) + 1
    lay = universe.layer(m)
    cell_u = int(lay.col_to[cellpos[0]]) - 2
    cell_v = int(lay.row_to[cellpos[0]]) - 2
    sample = HiddenSample(
        m=m,
        u=cell_u - 1.0 + float(du[0]),
        v=cell_v - 1.0 + float(dv[0]),
        w=float(w[0]),
    )
    return sample, float(spin_a[0]), float(spin_b[0])


def draw_batch(universe: LayerUniverse, a, b, size: int, rng: np.random.Generator):
    """Vectorized draws: dict of arrays (labels are 1-based, coords absolute)."""
    mu = build_measure(a, b, universe.n)
    m0, cellpos, du, dv, ell0, w, spin_a, spin_b = _batch_arrays(universe, mu, size, rng)
    cols = universe.col_to[m0 >> 1, cellpos] - 2
    rows = universe.row_to[m0 >> 1, cellpos] - 2
    return {
        "m": m0 + 1,
        "cell": cellpos - 2,
        "ell": ell0 + 1,
        "u": cols - 1.0 + du,
        "v": rows - 1.0 + dv,
        "w": w,
        "spin_a": spin_a,
        "spin_b": spin_b,
    }


def run_experiment(
    universe: LayerUniverse,
    a,
    b,
    trials: int,
    rng: np.random.Generator | None = None,
    seed=None,
    batch_size: int = 1_000_000,
    batch_means=None,
) -> CorrelationEstimate:
    """Estimate E{A B} from `trials` draws.

    Accepts either an explicit Generator or a seed; with a seed, batches use
    split child streams and a fixed merge order (count/mean/M2), so the
    result does not depend on how batches would be scheduled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mu = build_measure(a, b, universe.n)
    exact_target = -float(np.dot(mu.a, mu.b))
    streams = _streams_for(trials, batch_size, rng, seed)

    count = 0
    mean = 0.0
    m2 = 0.0
    remaining = trials
    for stream in streams:
        size = min(batch_size, remaining)
        _, _, _, _, _, _, sa, sb = _batch_arrays(universe, mu, size, stream)
        prod = sa * sb
        b_count = prod.size
        b_mean = float(prod.mean())
        b_m2 = float(((prod - b_mean) ** 2).sum())
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


def _streams_for(trials, batch_size, rng, seed):
    n_batches = (trials + batch_size - 1) // batch_size
    if rng is not None:
        return [rng] * n_batches
    if seed is None:
        raise ValueError("provide a Generator or an explicit seed")
    return [np.random.default_rng(child) for child in _as_seed_sequence(seed).spawn(n_batches)]


def chsh(
    universe: LayerUniverse,
    a,
    a2,
    b,
    b2,
    trials: int,
    seed=None,
    rng: np.random.Generator | None = None,
) -> ChshEstimate:
    """Run the four correlation experiments and combine them into S."""
    if rng is None and seed is None:
        raise ValueError("provide a Generator or an explicit seed")
    if rng is not None:
        runs = [
            run_experiment(universe, x, y, trials, rng=rng)
            for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))
        ]
    else:
        children = _as_seed_sequence(seed).spawn(4)
        runs = [
            run_experiment(universe, x, y, trials, seed=child)
            for (x, y), child in zip(((a, b), (a, b2), (a2, b), (a2, b2)), children)
        ]
    e_ab, e_ab2, e_a2b, e_a2b2 = runs
    s_value = abs(e_ab.mean - e_ab2.mean) + abs(e_a2b.mean + e_a2b2.mean)
    stderr = math.sqrt(sum(r.stderr**2 for r in runs))
    return ChshEstimate(s_value=s_value, stderr=stderr, components=tuple(runs))
