"""The stream helper of the sampling and emission kernels: a later block of
a stream, read beside an earlier one."""

from __future__ import annotations

import copy

import numpy as np


def advanced_copy(rng, words: int):
    """A copy of `rng` advanced by `words` 64-bit words; `rng` itself does
    not move.  Any numpy bit generator but PCG64 and PCG64DXSM, whose
    `advance` counts 64-bit words, one per double, is refused before
    anything is copied: MT19937 and SFC64 cannot advance, and Philox
    advances by blocks of four words."""
    # np.random is named here, not at import: numpy loads it on first use
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.BitGenerator) and not isinstance(
        bit_generator, (np.random.PCG64, np.random.PCG64DXSM)
    ):
        raise ValueError(
            f"the stream's bit generator must be PCG64 or PCG64DXSM, whose advance "
            f"counts 64-bit words; got {type(bit_generator).__name__}"
        )
    stream = copy.deepcopy(rng)
    stream.bit_generator.advance(words)
    return stream
