"""The random streams: the seed check, the bit generator (named, not left
to `default_rng`, whose bit generator NEP 19 lets numpy change) and the
16-bit lanes the kernels read.  Lane 4w + j of a stream is bits
16j .. 16j + 15 of its raw word w on any host.  A lane that does not decide
its draw takes a refinement word from a copy of the stream advanced past
all the kernel's lanes; the kernel then advances the stream past those."""

from __future__ import annotations

import copy

import numpy as np


def seed_sequence(seed) -> np.random.SeedSequence:
    """`seed` as a seed sequence.  Only an integer >= 0 or a SeedSequence is
    taken: `SeedSequence(None)` would draw OS entropy, an unrepeatable run."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer >= 0 or a SeedSequence, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    return np.random.SeedSequence(seed)


def stream(seed) -> np.random.Generator:
    """The PCG64 stream of `seed`, an integer >= 0 or a SeedSequence."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed)))


def lanes(rng, count: int) -> np.ndarray:
    """The next `count` lanes of `rng`, from ceil(count / 4) raw words."""
    words = rng.bit_generator.random_raw(-(-count // 4))
    return words.astype("<u8", copy=False).view("<u2")[:count]


def refinement_copy(rng, lane_count: int):
    """A copy of `rng` advanced past the words of its next `lane_count`
    lanes; `rng` does not move.  A numpy bit generator other than PCG64 and
    PCG64DXSM, whose `advance` counts 64-bit words, is refused before
    anything is copied: MT19937 and SFC64 cannot advance, and Philox
    advances by blocks of four words."""
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.BitGenerator) and not isinstance(
        bit_generator, (np.random.PCG64, np.random.PCG64DXSM)
    ):
        raise ValueError(
            f"the stream's bit generator must be PCG64 or PCG64DXSM, whose advance "
            f"counts 64-bit words; got {type(bit_generator).__name__}"
        )
    refine = copy.deepcopy(rng)
    refine.bit_generator.advance(-(-lane_count // 4))
    return refine
