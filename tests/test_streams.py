"""The stream helpers: the bit generator a seed becomes and the 16-bit lane
layout of raw words.  The seed check's refusals are tested beside the
sampler's (tests/test_sampling.py), the refinement copy through the kernels
that take it."""

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
