"""Monte Carlo engine: correlation estimates and CHSH runs.

A trial draws its cell and both half-cells by inverse transform, as one
atom (cell, half_a, half_b) of mass m_c / 4 over the positive-mass cells,
from one double, so the sampler targets the exact normalized cell law.  Both
spins carry the same flip (layer sign times s(ell)), so the product A*B
depends only on the atom and is read from one table.  `run_experiment` and
`chsh` therefore take no universe, only the order n: a trial is one double,
they run in O(N) time for N trials and never draw the label, the offsets or
the interval.  The kernel reads the stream's raw 64-bit words, the ones
`Generator.random` would turn into the doubles u = (w >> 11) * 2**-53, so a
trial's bucket of u is the word's top bits, one shift.  The sign of a
trial's product is read from one code per bucket, exactly what
`searchsorted` in the atom cumsum gives; only the few buckets that hold an
atom boundary are searched, at u rebuilt from the word.

A product is +1 or -1, so a batch of N trials is summed up by P, its count
of +1 products: its mean is (2P - N) / N and its sum of squared deviations
4P(N - P) / N, and batches merge by adding counts.  A batch walks its
trials in sub-chunks of 2**15 through buffers made once per batch, and
frees each sub-chunk's words before the next draw, so no per-trial array
outlives a sub-chunk.  Streams are numpy Generators;
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
# trials per sub-chunk of a batch: its words, their buckets and codes and
# the temporaries stay near 0.6 MiB, and each numpy call is long enough for
# `chsh`'s threads to overlap (README); 2**16 was no faster and peaked at
# twice that
SUB_CHUNK = 1 << 15
# buckets of u in [0, 1), a power of two so that a word's bucket is its top
# log2(GUIDE_BUCKETS) bits:
# the diagonal cell law puts its mass on few atoms (at most 48 for random
# settings up to n = 1e4), so few buckets hold an atom boundary and few
# targets need the search
GUIDE_BUCKETS = 4096


def _sign_table(mu: BaseMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atom cumsum of `mu`, the sign of each atom's product, and one sign
    code per bucket of u.

    Atom 4i + 2 half_a + half_b is (cell pos[i], half_a, half_b) of the
    positive-mass cells pos, of mass m_c / 4 (dividing by 4 is exact); a
    trial's atom is `np.searchsorted(cum, u * cum[-1], side="right")`, which
    skips an atom whose mass is too small to move the sum, and `plus[atom]`
    says whether its product is +1.

    Bucket i holds the u in [i / B, (i + 1) / B), B = GUIDE_BUCKETS, whose
    lowest and highest doubles are i / B and (i + 1) / B - 2**-53, since a
    draw is a multiple of 2**-53.  `fl(u * cum[-1])` and the search are
    monotone in u, so where the search finds the same atom at both ends it
    finds it for every u of the bucket, and `code` is its sign there (0 or
    1); elsewhere it is 2, mixed."""
    pos = np.flatnonzero(mu.cell_masses)
    cum = np.cumsum(np.repeat(mu.cell_masses[pos] / 4, 4))
    plus = (mu.outcome[0][pos, :, None] * mu.outcome[1][pos, None, :]).ravel() > 0
    # the low edges are searched, then the high ones, so that one float and
    # two intp arrays of B entries are alive at once
    edge = np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS
    first = np.searchsorted(cum, edge * cum[-1], side="right")
    edge += 1 / GUIDE_BUCKETS - 2.0**-53
    edge *= cum[-1]
    last = np.searchsorted(cum, edge, side="right")
    code = np.where(first == last, plus[first], np.int8(2))
    return cum, plus, code


def _plus_count(mu: BaseMeasure, size: int, rng) -> int:
    """How many of `size` trials have product A*B = +1, in O(size) time from
    `size` words of `rng`, the ones `rng.random(size)` would read; neither
    SUB_CHUNK nor GUIDE_BUCKETS changes a number.

    Both spins carry the same flip (layer sign times s(ell)), so the product
    is outcome[0, cell, half_a] * outcome[1, cell, half_b]: it depends on the
    drawn atom only, never on the label, interval or relocation, none of
    which is drawn.  A draw's double is u = (w >> 11) * 2**-53 of its word w,
    so its bucket floor(u * B), B = GUIDE_BUCKETS, is w >> (64 - log2 B), and
    the bucket code gives its sign; only the draws in mixed buckets are
    searched, at (w >> 11) * (cum[-1] * 2**-53): w >> 11 < 2**53 converts
    exactly and the scaling is a power of two, so it is u * cum[-1] bit for
    bit.  A bit generator whose doubles are made otherwise (MT19937) is
    refused before anything is drawn."""
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.BitGenerator) and not isinstance(
        bit_generator, (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
    ):
        raise ValueError(
            f"the stream's bit generator must be PCG64, PCG64DXSM, Philox or SFC64, whose "
            f"doubles are the top 53 bits of one word; got {type(bit_generator).__name__}"
        )
    cum, plus, code = _sign_table(mu)
    scale = cum[-1] * 2.0**-53
    shift = 65 - GUIDE_BUCKETS.bit_length()  # 64 - log2 B; at B = 1, numpy shifts by 64 to 0
    chunk = min(size, SUB_CHUNK)
    bucket = np.empty(chunk, dtype=np.intp)
    codes = np.empty(chunk, dtype=np.int8)
    count = 0
    for start in range(0, size, SUB_CHUNK):
        stop = min(SUB_CHUNK, size - start)
        b, c = bucket[:stop], codes[:stop]
        words = bit_generator.random_raw(stop)
        # the top bits are below B <= 2**63, so the words of b are its intp values
        np.right_shift(words, shift, out=b.view(np.uint64))
        np.take(code, b, out=c)
        count += int(np.count_nonzero(c == 1))
        target = (words[c == 2] >> 11) * scale
        del words  # else two sub-chunks' words are alive during the next draw
        count += int(np.count_nonzero(plus[np.searchsorted(cum, target, side="right")]))
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
    # numpy releases the GIL inside each draw, gather, search and ufunc, not
    # between them, so threads overlap as far as the kernel's calls, one
    # sub-chunk each, are long: on a 2-vCPU VM two components ran 1.21-1.48x as
    # fast on two threads as on one (README).  Each component's numbers depend
    # only on its child seed, not on the thread
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
