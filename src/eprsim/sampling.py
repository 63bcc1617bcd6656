"""Monte Carlo engine: correlation estimates and CHSH runs.

`run_experiment` returns the dict {"mean", "stderr", "trials",
"exact_target"} and `chsh` the dict {"s_value", "stderr", "components"},
`components` a list of four such `run_experiment` dicts: the fields the
`simulate` and `chsh` reports print.

A trial draws its cell and both half-cells by inverse transform, as one
atom (cell, half_a, half_b) of mass m_c / 4 over the positive-mass cells,
from one uniform u = x * 2**-53, x a 53-bit numerator, so the sampler
targets the exact normalized cell law.  Both spins carry the same flip
(layer sign times s(ell)), so the product A*B depends only on the atom and
is read from one table.  `run_experiment` and `chsh` therefore take no
universe, only the order n: they run in O(N) time for N trials and never
draw the label, the offsets or the interval.

The kernel reads only the bits of x that decide the atom (Knuth and Yao).
Trial t reads the stream's 16-bit lane t, laid out as `streams` says, and
its bucket of u is its lane's top 12 bits, the top 12 bits of x.  The sign
of a trial's product is read from one code per bucket, what `searchsorted`
in the atom cumsum gives for every u of the bucket.  Only a trial in one of
the few buckets that hold an atom boundary takes the low 41 bits of x, the
top bits of one refinement word, in trial order, and is searched.  Lanes
and refinement words are independent and uniform, so every trial's x is
uniform on its 2**53 values whether or not its low bits were drawn: the
atom law is that of the doubles of `Generator.random`, and only the
stream's mapping to trials differs from theirs.

A product is +1 or -1, so a batch of N trials is summed up by P, its count
of +1 products: its mean is (2P - N) / N and its sum of squared deviations
4P(N - P) / N, and batches merge by adding counts.  A batch walks its
trials in sub-chunks of 2**15, 2**13 lane words, through buffers made once
per batch, and settles the refined trials together once 2**10 of them
wait, so no per-trial array outlives a sub-chunk or such a settlement.
Streams are numpy Generators; experiments split a seed sequence per batch
of BATCH trials, and `chsh` runs its four components in order on the
caller's thread, each on its own child seed, so the sub-chunk size never
changes a number.
"""

from __future__ import annotations

import math

import numpy as np

from .measure import BaseMeasure, build_measure
from .streams import fixed_words, lanes, seed_sequence, stream


# trials per batch, each on its own child stream of the run's seed
BATCH = 1_000_000
# trials per sub-chunk of a batch, a multiple of 4: its 64 KiB of lane
# words, 256 KiB of buckets, its codes and the temporaries stay near
# 0.4 MiB; 2**16 ran `chsh` faster but lifted its peak RSS by about 0.6 MB
SUB_CHUNK = 1 << 15
# mixed trials refined together: once this many wait, their refinement
# words, targets and searches (about 33 bytes a trial) are made at once, so
# a batch makes a few such calls, not one set per sub-chunk, and their
# temporaries do not grow with the batch
REFINE_BATCH = 1 << 10
# buckets of u in [0, 1), a power of two up to 2**16 so that a trial's
# bucket is the top log2(GUIDE_BUCKETS) bits of its 16-bit lane; it decides
# which trials take a refinement word, so it is part of the stream mapping:
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
    `size` lanes of `rng` and one refinement word per trial in a mixed
    bucket; neither SUB_CHUNK nor REFINE_BATCH changes a number.

    Both spins carry the same flip (layer sign times s(ell)), so the product
    is outcome[0, cell, half_a] * outcome[1, cell, half_b]: it depends on the
    drawn atom only, never on the label, interval or relocation, none of
    which is drawn.  Its fixed words hold the `size` lanes and its refinement
    words one per trial in a mixed bucket, in trial order (see `streams`).
    Trial t reads lane t; with B = GUIDE_BUCKETS = 2**k, its bucket b is
    the lane's top k bits, and the bucket code gives its sign.  A trial in
    a mixed bucket takes the next refinement word r and is searched at its
    numerator x = (b << (53 - k)) | (r >> (11 + k)) times cum[-1] * 2**-53:
    x < 2**53 converts exactly and the scaling is a power of two, so the
    target is u * cum[-1] bit for bit.  Such trials are settled together
    once REFINE_BATCH of them wait, and at the end.  A bit generator whose
    `advance` does not count words is refused before anything is drawn."""
    fixed = fixed_words(rng, -(-size // 4))  # the words of `size` lanes
    cum, plus, code = _sign_table(mu)
    scale = cum[-1] * 2.0**-53
    k = GUIDE_BUCKETS.bit_length() - 1
    step = SUB_CHUNK & ~3  # trials per sub-chunk, whole lane words
    chunk = min(size, step)
    bucket = np.empty(chunk, dtype=np.intp)
    codes = np.empty(chunk, dtype=np.int8)
    count = 0
    # the buckets of the mixed trials not yet refined, in trial order
    pending, waiting = [], 0
    for start in range(0, size, step):
        stop = min(step, size - start)
        b, c = bucket[:stop], codes[:stop]
        # the lanes are freed here, so no two sub-chunks' words are alive at a draw
        np.right_shift(lanes(fixed, stop), 16 - k, out=b)
        np.take(code, b, out=c)
        count += int(np.count_nonzero(c == 1))
        pending.append(b[c == 2])
        waiting += pending[-1].size
        if waiting >= REFINE_BATCH or start + stop == size:
            x = np.concatenate(pending)
            x <<= 53 - k
            x |= (rng.bit_generator.random_raw(waiting) >> (11 + k)).view(np.intp)
            count += int(np.count_nonzero(plus[np.searchsorted(cum, x * scale, side="right")]))
            pending, waiting = [], 0
    return count


def run_experiment(
    n: int,
    a,
    b,
    trials: int,
    *,
    seed,
    batch_means=None,
) -> dict:
    """Estimate E{A B} from `trials` draws at order `n`: a dict of the
    estimate's `mean`, its `stderr`, the `trials` and `exact_target` = -a.b.

    Batches of BATCH trials use split child streams of `seed` and merge by
    adding their +1 counts, so the result depends neither on how batches
    would be scheduled nor on any summation order.  `batch_means`, if given,
    receives each batch's mean.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seed = seed_sequence(seed)
    mu = build_measure(a, b, n)
    exact_target = -float(np.dot(mu.a, mu.b))
    plus, remaining = 0, trials
    for rng in _streams_for(-(-trials // BATCH), seed):
        size = min(BATCH, remaining)
        b_plus = _plus_count(mu, size, rng)
        if batch_means is not None:
            batch_means.append((2 * b_plus - size) / size)
        plus += b_plus
        remaining -= size
    # mean (2P - N) / N and, from M2 = 4P(N - P) / N, the stderr
    # sqrt(M2 / (N - 1) / N): each one correctly rounded integer ratio
    mean = (2 * plus - trials) / trials
    var = 4 * plus * (trials - plus) / (trials * trials * (trials - 1)) if trials > 1 else 0.0
    return {"mean": mean, "stderr": math.sqrt(var), "trials": trials, "exact_target": exact_target}


def _streams_for(n_batches, seed):
    """One stream per batch, each made only when its batch starts, so memory
    does not grow with the number of batches.  Batch i gets the i-th child of
    the seed sequence: repeated `spawn(1)` calls give the same children as
    one `spawn(n_batches)`."""
    seq = seed_sequence(seed)
    return (stream(seq.spawn(1)[0]) for _ in range(n_batches))


def chsh(
    n: int,
    a,
    a2,
    b,
    b2,
    trials: int,
    *,
    seed,
) -> dict:
    """Run the four correlation experiments (a, b), (a, b2), (a2, b) and
    (a2, b2) in that order, each on its own child seed, and combine them
    into S = |E(a,b) - E(a,b2)| + |E(a2,b) + E(a2,b2)|: a dict of `s_value`,
    its `stderr` and the four `run_experiment` dicts as `components`."""
    children = seed_sequence(seed).spawn(4)
    pairs = ((a, b), (a, b2), (a2, b), (a2, b2))
    runs = [
        run_experiment(n, x, y, trials, seed=child) for (x, y), child in zip(pairs, children)
    ]
    e_ab, e_ab2, e_a2b, e_a2b2 = runs
    s_value = abs(e_ab["mean"] - e_ab2["mean"]) + abs(e_a2b["mean"] + e_a2b2["mean"])
    stderr = math.sqrt(sum(r["stderr"] ** 2 for r in runs))
    return {"s_value": s_value, "stderr": stderr, "components": runs}
