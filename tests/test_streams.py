"""The stream helpers: the bit generator a seed becomes, the copy a kernel
reads its fixed words from, and the layouts of raw words: 16-bit lanes, sort
keys and uniform spacings.  The seed check's refusals are tested beside the
sampler's (tests/test_sampling.py), and the fixed-word copy, the keys and the
spacings also through the kernels that take them, against oracles."""

import copy

import numpy as np
import pytest

from eprsim import streams


@pytest.mark.parametrize("seed", [29, np.random.SeedSequence(29)])
def test_stream_is_pcg64_of_its_seed_sequence(seed):
    rng = streams.stream(seed)
    assert type(rng.bit_generator) is np.random.PCG64
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(29)))
    assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("count", [1, 3, 4, 5, 1001])
def test_lane_4w_plus_j_is_bits_16j_of_word_w(count):
    rng, expected = streams.stream(5), streams.stream(5)
    words = [int(w) for w in expected.bit_generator.random_raw(-(-count // 4))]
    lanes = streams.lanes(rng, count)
    assert lanes.dtype.kind == "u" and lanes.dtype.itemsize == 2
    assert lanes.tolist() == [(w >> (16 * j)) & 0xFFFF for w in words for j in range(4)][:count]
    # the stream is left past the words it read
    assert rng.bit_generator.state == expected.bit_generator.state


def _words(fields, width: int) -> np.ndarray:
    """One row of raw words holding `fields`, `64 // width` a word, the
    first field in the low bits."""
    per_word = 64 // width
    fields = fields + [0] * (-len(fields) % per_word)
    return np.array(
        [[sum(f << (width * j) for j, f in enumerate(fields[i : i + per_word]))
          for i in range(0, len(fields), per_word)]],
        dtype=np.uint64,
    )


@pytest.mark.parametrize(
    "size, dtype, bits, row_words",
    [(24, "<u4", 8, 12), (27, "<u4", 8, 14), (256, "<u4", 8, 128), (257, "<u8", 16, 257),
     (65_536, "<u8", 16, 65_536)],
)
def test_key_layout_by_row_length(size, dtype, bits, row_words):
    assert streams.key_layout(size) == (np.dtype(dtype), bits, row_words)


def test_key_layout_refuses_rows_past_16_bit_indices():
    with pytest.raises(ValueError, match="65537"):
        streams.key_layout(65_537)


@pytest.mark.parametrize("size, width", [(25, 32), (300, 64)])
def test_sorted_keys_give_positions_in_random_bit_order(size, width):
    bits = 8 if width == 32 else 16
    # random bits falling with the position, and index bits that are not
    # the position, which the key layout overwrites
    fields = [(size - j) << bits | (j * 7 + 3) % (1 << bits) for j in range(size)]
    keys = streams.sorted_keys(_words(fields, width), size)
    assert keys.flags.c_contiguous and keys.dtype.itemsize * 8 == width
    assert (keys[0] & (1 << bits) - 1).tolist() == list(range(size))[::-1]
    assert (keys[0] >> bits).tolist() == list(range(1, size + 1))


def test_tied_names_exactly_the_rows_whose_random_bits_repeat():
    size = 24
    rows = [
        [(j + 1) << 8 for j in range(size)],  # random bits 1 .. 24
        [(j + 24) << 8 for j in range(size)],  # 24 .. 47: 24 again, but in another row
        [(j // 2) << 8 for j in range(size)],  # each value twice
    ]
    keys = streams.sorted_keys(np.concatenate([_words(row, 32) for row in rows]), size)
    assert streams.tied(keys).tolist() == [2]
    assert streams.tied(keys[:2]).tolist() == []


@pytest.mark.parametrize(
    "tops, weights",
    [
        ([], [1.0]),
        ([0], [0.0, 1.0]),
        ([2**53 - 1], [1 - 2.0**-53, 2.0**-53]),
        ([3 << 51, 1 << 51], [0.25, 0.5, 0.25]),
    ],
)
def test_uniform_spacings_are_exact_gaps_of_the_top_53_bits(tops, weights):
    words = np.array([[top << 11 | 0x7FF for top in tops]], dtype=np.uint64).reshape(1, -1)
    out = np.empty((1, len(weights)))
    assert streams.uniform_spacings(words, out) is out
    assert out[0].tolist() == weights
    # summed in float, in order, the row is exactly 1
    assert sum(out[0].tolist()) == 1.0


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
@pytest.mark.parametrize("words", [0, 1, 7])
def test_fixed_words_are_read_from_a_copy_and_the_stream_moves_past_them(bit_generator, words):
    rng = np.random.Generator(bit_generator(29))
    rng.integers(0, 2**32, dtype=np.uint32)  # leaves half a word buffered
    expected = copy.deepcopy(rng).bit_generator.random_raw(words + 3)
    fixed = streams.fixed_words(rng, words)
    assert fixed.bit_generator is not rng.bit_generator
    # the stream's next word is word `words`, and no half word is left
    assert rng.bit_generator.state["has_uint32"] == 0
    assert rng.bit_generator.random_raw(3).tolist() == expected[words:].tolist()
    # the copy reads the `words` words before it
    assert fixed.bit_generator.random_raw(words).tolist() == expected[:words].tolist()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox])
def test_fixed_words_refuse_a_generator_that_cannot_advance_by_words(bit_generator):
    rng = np.random.Generator(bit_generator(17))
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"PCG64 or PCG64DXSM.*got {bit_generator.__name__}$"):
        streams.fixed_words(rng, 3)
    np.testing.assert_equal(rng.bit_generator.state, state)
