"""The random streams: the seed check, the bit generator (named, not left
to `default_rng`, whose bit generator NEP 19 lets numpy change) and the
layouts in which the kernels read its raw 64-bit words, the same on any
host.  Lane 4w + j of a stream is bits 16j .. 16j + 15 of its raw word w.
A sort key of a row of `size` positions is a 32-bit half of a word (low
half first) while size <= 256, else a whole word; a row reads its own
`key_layout(size)[2]` words, and its keys are sorted once
(`sorted_keys`).  A row of L interval weights reads L - 1 words, one
uniform each (`uniform_spacings`).

A kernel reads a fixed count W of words (its lanes or key rows) and then
refinement words, one for each lane or row that its fixed words leave
undecided.  It reads the W fixed words from `fixed_words(rng, W)`, a copy
of the stream, which moves the stream past them at once; it reads its
refinement words from the stream itself, in order.  So from position p
the fixed words are p .. p + W - 1, the R refinement words follow them, and
the stream is left at p + W + R, with no word counted."""

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


def key_layout(size: int) -> tuple[np.dtype, int, int]:
    """(key dtype, index bits, words a row) of a row of `size` sort keys:
    uint32 keys of 24 random bits over an 8-bit index, two a word, while
    size <= 256, else uint64 keys of 48 random bits over a 16-bit index, one
    a word (size <= 65 536).  A row of odd size under uint32 keys leaves the
    high half of its last word unread."""
    if size <= 1 << 8:
        return np.dtype("<u4"), 8, -(-size // 2)
    if size <= 1 << 16:
        return np.dtype("<u8"), 16, size
    raise ValueError(f"a row of {size} sort keys is longer than 65 536")


def sorted_keys(words: np.ndarray, size: int) -> np.ndarray:
    """The sorted keys of rows of `size` positions, one row per row of
    `words` (raw uint64 words, `key_layout(size)[2]` a row), as a
    C-contiguous array: `words` itself where every field is read, else a
    new array.  Key j of a row is the row's j-th key-wide field with its
    index bits set to j, so the index bits of the sorted keys are the
    positions in the order of their random bits.  Those bits are distinct
    unless `tied` names the row."""
    dtype, bits, _ = key_layout(size)
    fields = words.astype("<u8", copy=False).view(dtype)[:, :size]
    high = dtype.type((1 << 8 * dtype.itemsize) - (1 << bits))
    keys = np.bitwise_and(fields, high, out=fields if fields.flags.c_contiguous else None)
    keys |= np.arange(size, dtype=dtype)
    keys.sort(axis=1)
    return keys


def tied(keys: np.ndarray) -> np.ndarray:
    """The indices of the rows of `sorted_keys` (C-contiguous) that hold two
    keys with the same random bits.  Two such keys are adjacent in their
    row, and their XOR is below 1 << bits.  One XOR down the flattened rows
    clears them all at once unless some adjacent pair, which may be the last
    key of one row and the first of the next, is below it; then the rows
    are checked one by one."""
    bits = key_layout(keys.shape[1])[1]
    flat = keys.reshape(-1)
    if np.bitwise_xor(flat[1:], flat[:-1]).min() >> bits:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero((np.bitwise_xor(keys[:, 1:], keys[:, :-1]) >> bits == 0).any(axis=1))


def uniform_spacings(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows of L Dirichlet(1) weights into `out` (shape (rows, L)) from rows
    of L - 1 raw words: the spacings of 0, the words' top 53 bits sorted
    and 2**53, times 2**-53.  Every spacing is an integer of at most 2**53
    and the scaling a power of two, so each weight is exact and every row
    sums to exactly 1.0, with no rounding and no function that differs
    between hosts."""
    edges = np.zeros((len(out), out.shape[1] + 1), dtype=np.uint64)
    np.right_shift(words, 11, out=edges[:, 1:-1])
    edges[:, 1:-1].sort(axis=1)
    edges[:, -1] = 1 << 53
    np.subtract(edges[:, 1:], edges[:, :-1], out=out, casting="unsafe")
    out *= 2.0**-53
    return out


def fixed_words(rng, words: int):
    """A copy of `rng` to read its next `words` raw words from; `rng` is
    advanced past them.  A numpy bit generator other than PCG64 and
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
    fixed = copy.deepcopy(rng)
    bit_generator.advance(words)
    return fixed
