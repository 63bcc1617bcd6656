import copy
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from eprsim import analysis, config, layers, measure

from oracles import (
    binomial_oracle,
    density,
    detector_a,
    domain_high,
    draw_universe_words,
    factorial_oracle,
    is_permutation,
    joint_density,
    label_layer,
    layer_density,
    layer_spin_a,
    layer_spin_b,
    loop_station_pair_joint,
    random_unit_vector,
    step_sign,
    step_weight,
    universe_file_bytes,
)

A = measure.as_setting([0.6, 0.8, 0.0])
B = measure.as_setting([0.28, 0.96, 0.0], normalize=True)


class TestLayerCount:
    def test_against_bigint_oracle(self):
        for n in (4, 5, 6):
            expected = (
                36
                * binomial_oracle(3 * n + 3, 3) ** 2
                * binomial_oracle(9 * n * n, 3 * n)
                * factorial_oracle(3 * n)
            )
            assert layers.layer_count(n) == expected

    def test_n4_binomial_factor(self):
        assert binomial_oracle(15, 3) == 455
        assert layers.layer_count(4) % 455**2 == 0

    def test_lower_bound(self):
        assert layers.layer_count(4) >= 36

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            layers.layer_count(3)
        with pytest.raises(ValueError):
            layers.layer_count_digits(3)


def _has_digits(n: int, digits: int) -> bool:
    """Whether the exact count at n, C(9n^2, 3n) (3n)! built as the falling
    factorial, has `digits` decimal digits."""
    count = 36 * math.comb(3 * n + 3, 3) ** 2 * math.perm(9 * n * n, 3 * n)
    power = 10 ** (digits - 1)
    return power <= count < 10 * power


# at n = 8800 and 9395 the log10 estimate lies within its margin of a whole
# number, the count beside a power of ten, so the exact integer decides
EXACT_PATH_N = (8800, 9395)


class TestLayerCountDigits:
    def test_digits_of_the_exact_count_up_to_2000(self):
        for n in range(4, 2001):
            assert _has_digits(n, layers.layer_count_digits(n)), n

    @pytest.mark.parametrize(
        "n", [2001, 4999, 8799, *EXACT_PATH_N, 9396, 15000, layers.MAX_SAVED_N]
    )
    def test_digits_of_the_exact_count_past_2000(self, n):
        assert _has_digits(n, layers.layer_count_digits(n))

    @pytest.mark.parametrize("n", [4, 249, 8799, *EXACT_PATH_N, layers.MAX_SAVED_N])
    def test_exact_count_built_only_beside_a_power_of_ten(self, monkeypatch, n):
        real, built = layers.layer_count, []
        monkeypatch.setattr(layers, "layer_count", lambda m: built.append(m) or real(m))
        layers.layer_count_digits(n)
        assert built == ([n] if n in EXACT_PATH_N else [])

    def test_decimal_digits_next_to_powers_of_ten_and_two(self):
        for e in range(1, 1300):
            for x in (10**e - 1, 10**e, 2**e - 1, 2**e):
                assert layers._decimal_digits(x) == len(str(x)), x


class TestLayerSampling:
    def test_replay_is_identical(self):
        one = layers.build_universe(4, 3, 1, np.random.default_rng(123))
        two = layers.build_universe(4, 3, 1, np.random.default_rng(123))
        assert np.array_equal(one.col_to, two.col_to)
        assert np.array_equal(one.row_to, two.row_to)
        assert np.array_equal(one.weights, two.weights)

    def test_companion_shares_everything_but_sign(self):
        uni = layers.build_universe(4, 2, 1, np.random.default_rng(5))
        *orig, orig_sign = label_layer(uni, 1)
        *comp, comp_sign = label_layer(uni, 2)
        assert orig_sign == 1 and comp_sign == -1
        for x, y in zip(orig, comp):
            assert np.array_equal(x, y)

    def test_permutations_are_valid(self):
        uni = layers.build_universe(4, 2, 1, np.random.default_rng(6))
        size = 3 * 4 + 12
        assert sorted(uni.col_to[0].tolist()) == list(range(size))
        assert sorted(uni.row_to[0].tolist()) == list(range(size))
        # the three unit ensembles land in three distinct columns and rows
        assert len(set(uni.col_to[0, :3].tolist())) == 3
        assert len(set(uni.row_to[0, :3].tolist())) == 3

    def test_tie_weights(self):
        uni = layers.build_universe(4, 4, 1, np.random.default_rng(7), tie_weights=True)
        np.testing.assert_allclose(uni.weights[0], 0.25, atol=0)
        assert uni.weights.flags.c_contiguous and not uni.weights.flags.writeable

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            layers.build_universe(3, 2, 1, rng)
        with pytest.raises(ValueError):
            layers.build_universe(4, 0, 1, rng)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox]
    )
    def test_generator_the_layout_cannot_read_is_refused_before_a_draw(self, bit_generator):
        # MT19937's raw words hold 32 bits, so a row's keys from their high
        # halves would tie for ever; SFC64 cannot advance and Philox advances
        # by blocks of four words, so neither can place the redraw words
        rng = np.random.Generator(bit_generator(17))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"got {bit_generator.__name__}$"):
            layers.build_universe(4, 2, 3, rng)
        np.testing.assert_equal(rng.bit_generator.state, state)


def _oracle_redraws(n: int, pairs: int, rng, tie_weights: bool = False) -> int:
    """Build `pairs` pairs at L = 3 from `rng`, check the universe's bytes
    and the stream's end against the oracle's draw from a copy of `rng`,
    and return the number of rows the oracle drew again."""
    oracle = copy.deepcopy(rng)
    universe = layers.build_universe(n, 3, pairs, rng, tie_weights=tie_weights)
    *arrays, redraws = draw_universe_words(n, 3, pairs, oracle, tie_weights)
    expected = layers.LayerUniverse(n, 3, *arrays)
    assert universe_file_bytes(universe) == universe_file_bytes(expected)
    # nothing else was drawn
    assert rng.bit_generator.random_raw() == oracle.bit_generator.random_raw()
    return redraws


class TestBatchedUniverseLaw:
    """The law of one batched `build_universe` draw, and its pinned stream."""

    PAIRS = 20_000
    SIZE = 3 * 4 + 12

    @pytest.fixture(scope="class")
    def big(self):
        return layers.build_universe(4, 3, self.PAIRS, np.random.default_rng(2024))

    def test_positions_uniform_per_ensemble(self, big):
        limit = sstats.chi2.ppf(1.0 - 1e-9, self.SIZE - 1)
        expected = self.PAIRS / self.SIZE
        for perms in (big.col_to, big.row_to):
            for ensemble in range(self.SIZE):
                counts = np.bincount(perms[:, ensemble], minlength=self.SIZE)
                assert ((counts - expected) ** 2 / expected).sum() < limit, ensemble

    def test_column_and_row_independent(self, big):
        # independent uniform permutations agree at each position with 1/S
        p = 1.0 / self.SIZE
        sigma = math.sqrt(p * (1.0 - p) / self.PAIRS)
        agree = (big.col_to == big.row_to).mean(axis=0)
        assert np.all(np.abs(agree - p) <= 6.0 * sigma)

    def test_dirichlet_weight_means(self, big):
        # each Dirichlet(1, ..., 1) coordinate is Beta(1, L - 1)
        ell = big.interval_count
        sigma = math.sqrt((ell - 1) / (ell * ell * (ell + 1)) / self.PAIRS)
        assert np.all(np.abs(big.weights.mean(axis=0) - 1.0 / ell) <= 6.0 * sigma)

    # 2M rows below, at and either side of whole BLOCK_ROWS blocks; at n = 5
    # each row leaves half of its last word unread, and n = 90 takes 64-bit
    # keys, 116 rows a block
    @pytest.mark.parametrize(
        "n, pairs", [(4, 7), (4, 512), (4, 513), (4, 1500), (5, 513), (90, 7), (90, 59)]
    )
    @pytest.mark.parametrize("tie_weights", [False, True])
    def test_stream_is_the_oracle_words(self, tie_weights, n, pairs):
        assert _oracle_redraws(n, pairs, np.random.default_rng(41), tie_weights) == 0

    def test_build_peak_per_pair_at_most_160_bytes(self):
        # tracemalloc slope from M = 1e4 to 2e4 at n = 4, L = 2: the uint16
        # relocations (96 bytes a pair) and the weights (16) are all that
        # grows; the words and keys of a block of rows, the words and edges
        # of a block of weights and the permutation check's uint64 block are
        # the same at any M
        layers.build_universe(4, 2, 10, np.random.default_rng(1))  # first-call caches
        peaks = []
        for pairs in (10_000, 20_000):
            tracemalloc.start()
            try:
                layers.build_universe(4, 2, pairs, np.random.default_rng(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 10_000 <= 160


class TestKeyRedraw:
    """A row whose keys' random bits tie is drawn again, in row order, from
    words past all the rows' words; BLOCK_ROWS moves no number."""

    # (n, pairs, seed, rows drawn again): at n = 4 one of the 40 rows ties;
    # at n = 81, the most positions 8-bit indices hold, a tied row ties again
    # when it is drawn again
    TIED = [(4, 20, 182, 1), (81, 100, 1555, 2)]

    @pytest.mark.parametrize("n, pairs, seed, redraws", TIED)
    def test_tied_rows_are_the_oracle_redraws(self, n, pairs, seed, redraws):
        assert _oracle_redraws(n, pairs, np.random.default_rng(seed)) == redraws

    @pytest.mark.parametrize(
        "n, pairs, seed", [(4, 1500, 41), (90, 59, 41), *(case[:3] for case in TIED)]
    )
    def test_block_rows_change_no_number(self, monkeypatch, n, pairs, seed):
        default_rng, small_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        default = layers.build_universe(n, 3, pairs, default_rng)
        monkeypatch.setattr(layers, "BLOCK_ROWS", 7)
        small = layers.build_universe(n, 3, pairs, small_rng)
        assert universe_file_bytes(small) == universe_file_bytes(default)
        assert small_rng.bit_generator.random_raw() == default_rng.bit_generator.random_raw()

    def test_pcg64dxsm_words_are_read_alike(self):
        rng = np.random.Generator(np.random.PCG64DXSM(41))
        assert _oracle_redraws(5, 7, rng) == 0


class TestCompanionCancellation:
    def test_pointwise_cancellation(self):
        rng = np.random.default_rng(11)
        mu = measure.build_measure(A, B, 4)
        for _ in range(5):
            uni = layers.build_universe(4, 3, 1, rng)
            us = rng.uniform(-6.0, domain_high(mu.n) + 3.0, 10_000)
            ws = rng.random(10_000)
            sa = layer_spin_a(uni, 1, A, us, ws) + layer_spin_a(uni, 2, A, us, ws)
            sb = layer_spin_b(uni, 1, B, us, ws) + layer_spin_b(uni, 2, B, us, ws)
            assert np.abs(sa).max() == 0.0
            assert np.abs(sb).max() == 0.0

    def test_densities_identical(self):
        rng = np.random.default_rng(13)
        uni = layers.build_universe(4, 2, 1, rng)
        mu = measure.build_measure(A, B, 4)
        for _ in range(500):
            u = rng.uniform(-3.0, domain_high(mu.n))
            v = rng.uniform(-3.0, domain_high(mu.n))
            w = rng.random()
            assert layer_density(uni, 1, mu, u, v, w) == layer_density(uni, 2, mu, u, v, w)


class TestPerLayerIntegral:
    def test_matches_minus_dot_product(self):
        # a one-pair universe's expectation is its layers' common integral
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            mu = measure.build_measure(a, b, 4)
            uni = layers.build_universe(4, 3, 1, rng)
            target = -float(np.dot(mu.a, mu.b))
            assert analysis.pair_expectation(uni, mu) == pytest.approx(target, abs=1e-12)

    def test_mass_conserved(self):
        # relocation moves whole cells: summing the label's density over its
        # relocated cells and weight intervals gives the base total mass
        rng = np.random.default_rng(19)
        mu = measure.build_measure(A, B, 8)
        uni = layers.build_universe(8, 2, 1, rng)
        total = sum(
            layer_density(uni, 1, mu, col - 2.5, row - 2.5, (ell + 0.5) / 2)
            for col, row in zip(uni.col_to[0], uni.row_to[0])
            for ell in range(2)
        )
        assert total == pytest.approx(measure.total_mass(mu), abs=1e-15)


def _identity_universe(weights):
    """One pair whose layers leave every ensemble in place: label 1 is the
    base layer, label 2 its companion."""
    eye = np.arange(3 * 4 + 12)
    return layers.LayerUniverse(4, len(weights), eye[None], eye[None], [weights])


class TestLayerEvaluation:
    def test_identity_layer_matches_base(self):
        weights = [0.25, 0.75]
        ident = _identity_universe(weights)
        mu = measure.build_measure(A, B, 4)
        rng = np.random.default_rng(23)
        for _ in range(400):
            u = rng.uniform(-5.0, domain_high(mu.n) + 2.0)
            v = rng.uniform(-5.0, domain_high(mu.n) + 2.0)
            w = rng.random()
            expect_a = detector_a(A, u) * step_sign(w, 2)
            expect_b = -detector_a(B, v) * step_sign(w, 2)
            assert layer_spin_a(ident, 1, A, u, w) == expect_a
            assert layer_spin_b(ident, 1, B, v, w) == expect_b
            if -3.0 <= u < domain_high(mu.n) and -3.0 <= v < domain_high(mu.n):
                expect_rho = density(mu, u, v) * step_weight(w, weights)
                assert layer_density(ident, 1, mu, u, v, w) == pytest.approx(
                    expect_rho, abs=1e-15
                )

    def test_companion_negates_identity(self):
        ident = _identity_universe([1.0])
        # L = 1 so s(w) = -1 everywhere: the companion (label 2) gives +A
        assert layer_spin_a(ident, 2, [1, 0, 0], -0.5, 0.5) == 1.0
        assert layer_spin_a(ident, 1, [1, 0, 0], -0.5, 0.5) == -1.0

    def test_zero_mass_cell_density(self):
        mu = measure.build_measure([1, 0, 0], [1, 0, 0], 4)
        ident = _identity_universe([1.0])
        # spline cells all vanish when both settings sit on an axis
        assert layer_density(ident, 1, mu, 0.5, 0.5, 0.5) == 0.0

    def test_relocated_density_matches_preimage_oracle(self):
        rng = np.random.default_rng(29)
        mu = measure.build_measure(A, B, 4)
        uni = layers.build_universe(4, 3, 1, rng)
        col_to, row_to, weights = uni.col_to[0], uni.row_to[0], uni.weights[0]
        # rebuild inverse maps by linear search, then compare against the base
        col_from = {int(col_to[p]): p for p in range(col_to.size)}
        row_from = {int(row_to[p]): p for p in range(row_to.size)}
        for _ in range(800):
            u = rng.uniform(-3.0, domain_high(mu.n))
            v = rng.uniform(-3.0, domain_high(mu.n))
            w = rng.random()
            pu = col_from[int(np.floor(u)) + 3] - 3 + (u - np.floor(u))
            pv = row_from[int(np.floor(v)) + 3] - 3 + (v - np.floor(v))
            expect = density(mu, pu, pv) * step_weight(w, weights)
            assert layer_density(uni, 1, mu, u, v, w) == pytest.approx(expect, abs=1e-15)

    def test_out_of_domain_coordinates(self):
        mu = measure.build_measure(A, B, 4)
        ident = _identity_universe([1.0])
        assert layer_density(ident, 1, mu, -4.0, -4.0, 0.5) == 0.0
        assert layer_density(ident, 1, mu, 100.0, 100.0, 0.5) == 0.0
        with pytest.raises(ValueError):
            layer_density(ident, 1, mu, 0.5, 0.5, 1.0)


class TestUniverse:
    def test_label_structure(self):
        uni = layers.build_universe(4, 2, 6, np.random.default_rng(31))
        assert uni.label_count == 12
        assert uni.pair_count == 6
        for k in range(uni.pair_count):
            assert label_layer(uni, 2 * k + 1)[3] == 1
            assert label_layer(uni, 2 * k + 2)[3] == -1
        with pytest.raises(ValueError):
            label_layer(uni, 0)
        with pytest.raises(ValueError):
            label_layer(uni, 13)

    def test_joint_density_mixture_mass(self):
        uni = layers.build_universe(4, 3, 4, np.random.default_rng(37))
        mu = measure.build_measure(A, B, 4)
        # atoms: cells x intervals x labels; each atom has volume 1 x (1/L)
        total = 0.0
        for m in range(1, uni.label_count + 1):
            col_to, row_to, _, _ = label_layer(uni, m)
            for p in range(col_to.size):
                u = float(col_to[p]) - 2 - 0.5
                v = float(row_to[p]) - 2 - 0.5
                for ell in range(uni.interval_count):
                    w = (ell + 0.5) / uni.interval_count
                    total += joint_density(uni, mu, u, v, w, m)
        # each (cell, interval) atom contributes density * 1 * 1; q carries the
        # interval mass itself, so no 1/L volume factor is applied
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_conditional_matches_normalized_layer_density(self):
        uni = layers.build_universe(4, 2, 3, np.random.default_rng(41))
        mu = measure.build_measure(A, B, 4)
        w_total = measure.total_mass(mu)
        rng = np.random.default_rng(43)
        for _ in range(200):
            m = int(rng.integers(1, uni.label_count + 1))
            u = rng.uniform(-3.0, domain_high(mu.n))
            v = rng.uniform(-3.0, domain_high(mu.n))
            w = rng.random()
            joint = joint_density(uni, mu, u, v, w, m)
            conditional = joint * uni.label_count
            assert conditional == pytest.approx(
                layer_density(uni, m, mu, u, v, w) / w_total, abs=1e-15
            )

    def test_companion_labels_share_density(self):
        uni = layers.build_universe(4, 2, 3, np.random.default_rng(47))
        mu = measure.build_measure(A, B, 4)
        rng = np.random.default_rng(53)
        for _ in range(100):
            u = rng.uniform(-3.0, domain_high(mu.n))
            v = rng.uniform(-3.0, domain_high(mu.n))
            w = rng.random()
            for k in range(uni.pair_count):
                d1 = joint_density(uni, mu, u, v, w, 2 * k + 1)
                d2 = joint_density(uni, mu, u, v, w, 2 * k + 2)
                assert d1 == d2


class TestMixtureUniformity:
    def test_cell_average_approaches_uniform(self):
        # resampling oracle: the observed deviation statistic should be
        # typical of its own sampling distribution (99th percentile guard)
        mu = measure.build_measure(A, B, 4)
        size = 3 * 4 + 12

        def max_deviation(seed, pairs=2000):
            uni = layers.build_universe(4, 1, pairs, np.random.default_rng(seed))
            joint = loop_station_pair_joint(uni, mu)
            return float(np.abs(joint - 1.0 / size**2).max())

        observed = max_deviation(20250810)
        replicas = sorted(max_deviation(1000 + r) for r in range(60))
        p99 = float(np.percentile(replicas, 99))
        assert observed <= p99
        # and the deviation shrinks with the number of sampled pairs
        assert observed < max_deviation(20250810, pairs=20)


def _data(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


class TestCompactUniverse:
    """Positions held as read-only uint16 and weights as read-only float64,
    copied only where the universe does not already own them."""

    SIZE = 3 * 4 + 12

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64])
    def test_caller_arrays_are_copied(self, dtype):
        rng = np.random.default_rng(83)
        cols = np.stack([rng.permutation(self.SIZE) for _ in range(3)]).astype(dtype)
        rows = np.stack([rng.permutation(self.SIZE) for _ in range(3)]).astype(dtype)
        weights = rng.dirichlet(np.ones(2), size=3)
        uni = layers.LayerUniverse(4, 2, cols, rows, weights)
        kept = [arr.copy() for arr in (cols, rows, weights)]
        cols[:] = cols[:, ::-1]
        rows[0] = rows[1]
        weights[:] = weights[:, ::-1]
        for arr, want in zip((uni.col_to, uni.row_to, uni.weights), kept):
            np.testing.assert_array_equal(arr, want)
            assert not arr.flags.writeable
        assert uni.col_to.dtype == uni.row_to.dtype == np.uint16
        assert uni.weights.dtype == np.float64

    def test_build_keeps_its_own_draws(self):
        # one uint16 array of the 2M permutations, rows [:M] and [M:], and the
        # Dirichlet draw itself
        uni = layers.build_universe(4, 3, 5, np.random.default_rng(89))
        assert uni.col_to.dtype == uni.row_to.dtype == np.uint16
        assert _data(uni.row_to) == _data(uni.col_to) + uni.col_to.nbytes
        assert uni.weights.flags.owndata
        for arr in (uni.col_to, uni.row_to, uni.weights):
            assert not arr.flags.writeable

    def test_loaded_arrays_are_views_of_the_body(self, tmp_path):
        uni = layers.build_universe(4, 3, 5, np.random.default_rng(97))
        path = tmp_path / "universe.bin"
        layers.save_universe(uni, path)
        loaded = layers.load_universe(path)
        # columns, rows and weights lie back to back in the one body buffer
        span = loaded.col_to.nbytes
        assert _data(loaded.row_to) == _data(loaded.col_to) + span
        assert _data(loaded.weights) == _data(loaded.col_to) + 2 * span
        for arr in (loaded.col_to, loaded.row_to, loaded.weights):
            assert not arr.flags.writeable and not arr.flags.owndata
        assert loaded.col_to.dtype == np.uint16

    def test_interval_count_must_match_the_weights(self):
        eye = np.arange(self.SIZE)[None]
        message = "^interval_count 3 differs from the 2 weights per pair$"
        with pytest.raises(ValueError, match=message):
            layers.LayerUniverse(4, 3, eye, eye, [[0.5, 0.5]])

    @pytest.mark.parametrize("position", [SIZE, 2**16, 2**16 + 5, -1])
    def test_positions_are_checked_before_the_cast(self, position):
        # 2**16 + k would wrap to k, a position in range, if cast first
        eye = np.arange(self.SIZE)
        bad = eye.copy()
        bad[5] = position
        with pytest.raises(ValueError, match="columns"):
            layers.LayerUniverse(4, 1, bad[None], eye[None], [[1.0]])
        with pytest.raises(ValueError, match="rows"):
            layers.LayerUniverse(4, 1, eye[None], bad[None], [[1.0]])

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64])
    @pytest.mark.parametrize(
        "bad_row", [layers.BLOCK_ROWS - 1, layers.BLOCK_ROWS, 2 * layers.BLOCK_ROWS]
    )
    def test_non_permutation_refused_in_any_block(self, bad_row, dtype):
        # 2049 pairs span three BLOCK_ROWS blocks: the last row and the rows
        # either side of the first block edge are checked alike
        pairs = 2 * layers.BLOCK_ROWS + 1
        eye = np.tile(np.arange(self.SIZE, dtype=dtype), (pairs, 1))
        bad = eye.copy()
        bad[bad_row, 3] = bad[bad_row, 4]  # a repeated position, one missing
        for arr in (eye, bad):
            arr.setflags(write=False)
        weights = np.ones((pairs, 1))
        message = f"must permute the {self.SIZE} diagonal positions"
        with pytest.raises(ValueError, match=f"^columns {message}$"):
            layers.LayerUniverse(4, 1, bad, eye, weights)
        with pytest.raises(ValueError, match=f"^rows {message}$"):
            layers.LayerUniverse(4, 1, eye, bad, weights)

    def test_n_past_uint16_refused_before_allocating(self):
        n = layers.MAX_SAVED_N + 1
        eye = np.arange(3 * n + 12)[None]  # 0.5 MiB, made before tracing
        rng = np.random.default_rng(101)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"'n' = {n} "):
                layers.LayerUniverse(n, 1, eye, eye, [[1.0]])
            with pytest.raises(ValueError, match=f"'n' = {n} "):
                layers.build_universe(n, 1, 1, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the build's int64 tile alone would take 1 MiB, the sort check 0.5
        assert peak < 64 << 10


# what one entry of a permutation row is overwritten with, and the dtypes it
# is tried in: those that hold the value, and bool, which holds any nonzero
# value as True
_ENTRY_VALUES = {
    "repeat": (np.uint16, np.int64, np.uint64, np.float64, np.bool_),
    "size": (np.uint16, np.int64, np.uint64, np.float64, np.bool_),
    "wrap": (np.int64, np.uint64, np.float64),
    "negative": (np.int64, np.float64),
    "half": (np.float64,),
}


def _overwrite(row: list, at: int, kind: str) -> None:
    """Overwrite row[at]: with its neighbour's value (one position repeated,
    one missing), with the row length S, with 65536 + row[at] (a uint16
    cast would wrap it back), with a negative value or with row[at] + 0.5."""
    size = len(row)
    row[at] = {
        "repeat": row[(at + 1) % size],
        "size": size,
        "wrap": 65536 + row[at],
        "negative": -1 - row[at],
        "half": row[at] + 0.5,
    }[kind]


@st.composite
def _position_arrays(draw):
    """(n, an (M, 3n+12) array) at n = 4, 17 (S = 63, the longest rows the
    bit-OR checks) or 18 (S = 66, the sort), M = 0 .. 3, in one of five
    dtypes, each row a permutation with at most one entry overwritten."""
    n = draw(st.sampled_from([4, 17, 18]))
    dtype = draw(st.sampled_from(_ENTRY_VALUES["repeat"]))
    kinds = [kind for kind, dtypes in _ENTRY_VALUES.items() if dtype in dtypes]
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        row = list(draw(st.permutations(range(3 * n + 12))))
        if draw(st.booleans()):
            _overwrite(row, draw(st.integers(0, len(row) - 1)), draw(st.sampled_from(kinds)))
        rows.append(row)
    return n, np.asarray(rows, dtype=dtype).reshape(len(rows), 3 * n + 12)


def _assert_check_is_the_oracle(n: int, arr: np.ndarray) -> None:
    """LayerUniverse takes `arr` as columns or as rows exactly when every row
    permutes the diagonal positions by the sorting oracle, and otherwise
    refuses it with the one message naming the array."""
    size = 3 * n + 12
    eye = np.tile(np.arange(size), (len(arr), 1))
    weights = np.ones((len(arr), 1))
    for name, cols, rows in (("columns", arr, eye), ("rows", eye, arr)):
        if not all(is_permutation(row, size) for row in arr.tolist()):
            with pytest.raises(ValueError, match=f"^{name} must permute the {size} diagonal"):
                layers.LayerUniverse(n, 1, cols, rows, weights)
        elif len(arr) == 0:
            with pytest.raises(ValueError, match="one row per pair"):
                layers.LayerUniverse(n, 1, cols, rows, weights)
        else:
            uni = layers.LayerUniverse(n, 1, cols, rows, weights)
            np.testing.assert_array_equal(uni.col_to, cols)
            np.testing.assert_array_equal(uni.row_to, rows)


class TestPermutationCheck:
    """The bit-OR check (integer rows up to 64 positions) and the sort it
    keeps (longer rows, float, bool and object rows) accept exactly the
    arrays the sorting oracle accepts."""

    @settings(max_examples=200, deadline=None)
    @given(case=_position_arrays())
    def test_accepts_exactly_the_oracle_permutations(self, case):
        _assert_check_is_the_oracle(*case)

    @pytest.mark.parametrize("n", [4, 17, 18])
    @pytest.mark.parametrize(
        "kind, dtype",
        [(None, dtype) for dtype in _ENTRY_VALUES["repeat"]]
        + [(kind, dtype) for kind, dtypes in _ENTRY_VALUES.items() for dtype in dtypes],
    )
    def test_every_entry_value_in_every_dtype(self, n, kind, dtype):
        rng = np.random.default_rng(n)
        rows = [list(rng.permutation(3 * n + 12)) for _ in range(3)]
        if kind is not None:
            _overwrite(rows[1], 5, kind)
        _assert_check_is_the_oracle(n, np.asarray(rows, dtype=dtype))

    @pytest.mark.parametrize("n", [4, 17, 18])
    @pytest.mark.parametrize("dtype", _ENTRY_VALUES["repeat"])
    def test_no_pairs_is_refused_as_before(self, n, dtype):
        _assert_check_is_the_oracle(n, np.empty((0, 3 * n + 12), dtype=dtype))

    def test_a_bad_row_is_found_in_any_row(self):
        # at S = 63 a block holds fewer than BLOCK_ROWS rows: a repeated
        # position is refused in every row of 2 * BLOCK_ROWS + 1, block
        # edges included
        size = 3 * 17 + 12
        eye = np.tile(np.arange(size, dtype=np.uint16), (2 * layers.BLOCK_ROWS + 1, 1))
        bad = eye.copy()
        for row in range(len(bad)):
            bad[row, 3] = 4
            with pytest.raises(ValueError, match="^columns must permute"):
                layers._permutations(bad, size, "columns")
            bad[row, 3] = 3
        np.testing.assert_array_equal(layers._permutations(bad, size, "columns"), eye)

    @pytest.mark.parametrize("n", [4, 17])
    def test_check_peak_does_not_grow_with_pairs(self, n):
        # a read-only uint16 array, as a file loads, is kept as it is; beside
        # it the check holds one uint64 block of at most BLOCK_ROWS * 32 words
        # (256 KiB) and the cast buffers of the shift, at any M
        size = 3 * n + 12
        eye = np.arange(size, dtype=np.uint16)
        layers._permutations(eye[None], size, "columns")  # first-call caches
        for pairs in (10_000, 20_000):
            rows = np.random.default_rng(pairs).permuted(np.tile(eye, (pairs, 1)), axis=1)
            rows.setflags(write=False)
            tracemalloc.start()
            try:
                assert layers._permutations(rows, size, "columns") is rows
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 512 << 10, (pairs, peak)


class TestSerialization:
    def test_round_trip_identical(self, tmp_path):
        uni = layers.build_universe(4, 3, 5, np.random.default_rng(59))
        path = tmp_path / "universe.json"
        layers.save_universe(uni, path)
        loaded = layers.load_universe(path)
        assert loaded.n == uni.n
        assert loaded.interval_count == uni.interval_count
        assert loaded.label_count == uni.label_count
        mu = measure.build_measure(A, B, 4)
        rng = np.random.default_rng(61)
        for _ in range(10_000):
            m = int(rng.integers(1, uni.label_count + 1))
            u = rng.uniform(-3.0, domain_high(mu.n))
            v = rng.uniform(-3.0, domain_high(mu.n))
            w = rng.random()
            assert joint_density(uni, mu, u, v, w, m) == joint_density(loaded, mu, u, v, w, m)

    def test_schema_version_checked(self, tmp_path):
        uni = layers.build_universe(4, 2, 2, np.random.default_rng(67))
        path = tmp_path / "universe.json"
        layers.save_universe(uni, path)
        header, body = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["schema"] = "layer-universe/99"
        path.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        with pytest.raises(ValueError, match="layer-universe/99"):
            layers.load_universe(path)

    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("pair_count", [1, 7])
    @pytest.mark.parametrize("interval_count", [1, 3])
    @pytest.mark.parametrize("n", [4, 5, 40])
    def test_bytes_are_the_oracle_bytes(self, tmp_path, n, interval_count, pair_count, tie):
        # the header, the layout and the byte order of an independent writer
        rng = np.random.default_rng(73 + n + pair_count)
        uni = layers.build_universe(n, interval_count, pair_count, rng, tie_weights=tie)
        path = tmp_path / "universe.json"
        layers.save_universe(uni, path)
        assert path.read_bytes() == universe_file_bytes(uni)

    def test_save_is_deterministic(self, tmp_path):
        uni = layers.build_universe(4, 2, 4, np.random.default_rng(71))
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        layers.save_universe(uni, p1)
        layers.save_universe(uni, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("n, fits", [(21841, True), (21842, False)])
    def test_positions_must_fit_uint16(self, tmp_path, n, fits):
        # 3n + 12 positions per row: 65535 at n = 21841, 65538 at n = 21842
        # positions are held as uint16, so a universe past the limit is refused
        # when it is made, before it could be saved; one within it is saved,
        # but a universe file stops at n = 1869, so its header is refused
        eye = np.arange(3 * n + 12)
        if not fits:
            with pytest.raises(ValueError, match="'n'"):
                layers.LayerUniverse(n, 1, eye[None], eye[::-1][None], [[1.0]])
            return
        uni = layers.LayerUniverse(n, 1, eye[None], eye[::-1][None], [[1.0]])
        path = tmp_path / "universe.json"
        layers.save_universe(uni, path)
        assert path.read_bytes() == universe_file_bytes(uni)
        with pytest.raises(ValueError, match=f"universe fields 'n' = {n}, "):
            layers.load_universe(path)

    @pytest.mark.parametrize(
        "n, interval_count, pair_count, writable",
        [
            # each size rule of a universe file at the 1 GiB budget, then one
            # unit past it: the relocations by n and M; the weights counted
            # with one block's words and edges, 24 bytes per interval of each
            # of the first 1024 pairs, which binds from M = 416 at n = 4; the
            # S x S joint table of analyze by n; and analyze's S x L sums,
            # which bind at n = 4 below M = 416
            (4, 1, config.BUDGET // 384, True),
            (4, 1, config.BUDGET // 384 + 1, False),
            (4, 2**16, 682, True),
            (4, 2**16, 683, False),
            (4, 2**14, 2**13 - 2048, True),
            (4, 2**14, 2**13 - 2047, False),
            (1869, 1, 1, True),
            (1869, 1, 11943, True),
            (1869, 1, 11944, False),
            (1870, 1, 1, False),
            (layers.MAX_SAVED_N, 1, 1, False),
            (layers.MAX_SAVED_N + 1, 1, 1, False),
            (4, 321_095, 1, True),
            (4, 321_096, 1, False),
            (4, 2**18, 48, True),
            (4, 2**18, 49, False),
        ],
    )
    def test_header_readable_exactly_when_layers_writes_it(
        self, tmp_path, n, interval_count, pair_count, writable
    ):
        header = {"schema": layers.UNIVERSE_SCHEMA, "n": n, "interval_count": interval_count}
        header.update(pair_count=pair_count)
        path = tmp_path / "universe.json"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        # the missing body is read, and found short, only past the header
        match = "universe body holds 0 bytes" if writable else "past the sizes `layers` writes"
        with pytest.raises(ValueError, match=match):
            layers.load_universe(path)


def _universe_for(n, interval_count, pair_count, seed, weights):
    rng = np.random.default_rng(seed)
    if weights == "tied":
        return layers.build_universe(n, interval_count, pair_count, rng, tie_weights=True)
    if weights == "tied_one_hot":
        uni = layers.build_universe(n, interval_count, pair_count, rng, tie_weights=True)
        one_hot = np.broadcast_to(np.eye(interval_count)[-1], uni.weights.shape)
        return layers.LayerUniverse(n, interval_count, uni.col_to, uni.row_to, one_hot)
    uni = layers.build_universe(n, interval_count, pair_count, rng)
    if weights == "dirichlet":
        return uni
    # zero about half of each row's weights, keeping its largest
    w = np.where(rng.random(uni.weights.shape) < 0.5, 0.0, uni.weights)
    w[np.arange(pair_count), uni.weights.argmax(axis=1)] = uni.weights.max(axis=1)
    w /= w.sum(axis=1, keepdims=True)
    return layers.LayerUniverse(n, interval_count, uni.col_to, uni.row_to, w)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 64),
    interval_count=st.sampled_from([1, 2, 3, 64]),
    pair_count=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    weights=st.sampled_from(["dirichlet", "with_zeros", "tied", "tied_one_hot"]),
)
def test_universe_file_round_trips_bit_for_bit(n, interval_count, pair_count, seed, weights):
    uni = _universe_for(n, interval_count, pair_count, seed, weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "universe.json"
        layers.save_universe(uni, path)
        header = json.loads(path.open("rb").readline())
        assert header == {
            "schema": "layer-universe/3",
            "n": n,
            "interval_count": interval_count,
            "pair_count": pair_count,
        }
        loaded = layers.load_universe(path)
        assert (loaded.n, loaded.interval_count) == (n, interval_count)
        assert np.array_equal(loaded.col_to, uni.col_to)
        assert np.array_equal(loaded.row_to, uni.row_to)
        assert loaded.weights.tobytes() == uni.weights.tobytes()


def test_published_count_value_n4():
    expected = 36 * 455**2 * math.comb(144, 12) * math.factorial(12)
    assert layers.layer_count(4) == expected
