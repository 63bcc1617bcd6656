import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from eprsim import layers, measure, sampling, streams

from oracles import (
    draw_batch,
    inside_bins,
    lane_atoms,
    layer_density,
    plain_atoms,
    random_unit_vector,
)
from strategies import edge_cases

A = measure.as_setting([1.0, 0.0, 0.0])
B45 = measure.as_setting([np.sqrt(0.5), np.sqrt(0.5), 0.0], normalize=True)
# this pair has zero clip defect at n=4, so the sampled law hits -a.b exactly
B_CLEAN = measure.as_setting([0.6, 0.8, 0.0])


@pytest.fixture(scope="module")
def universe():
    return layers.build_universe(4, 2, 50, np.random.default_rng(301))


# the order n of the `universe` fixture, all of it that run_experiment and chsh take
N = 4
MU_CLEAN = measure.build_measure(A, B_CLEAN, N)
MU_45 = measure.build_measure(A, B45, N)


def _plain_plus_count(mu, size, rng, buckets=4096):
    """The number of +1 products among `size` trials of the atom block, read
    trial by trial."""
    return _plus_of(mu, *lane_atoms(mu, size, rng, buckets))


def _plus_of(mu, cell, half_a, half_b):
    """The number of the atoms (cell, half_a, half_b) whose product is +1."""
    return int(np.sum(mu.outcome[0][cell, half_a] * mu.outcome[1][cell, half_b] == 1))


def _table_spins(mu, batch):
    """flip * mu.outcome[side, cell + 2, half] on both sides, where flip is the
    layer sign (+1 for odd m) times s(ell) = (-1)^ell and half is the
    half-cell of u (side 0) or of v (side 1)."""
    flip = np.where(batch["m"] % 2 == 1, 1.0, -1.0) * np.where(batch["ell"] % 2 == 1, -1.0, 1.0)
    pos = batch["cell"] + 2
    return tuple(
        flip * mu.outcome[side][pos, np.floor(2 * batch[key]).astype(np.int64) % 2]
        for side, key in ((0, "u"), (1, "v"))
    )


class TestDraw:
    def test_single_draw_shape(self, universe):
        one = draw_batch(universe, MU_CLEAN, 1, np.random.default_rng(5))
        assert {len(value) for value in one.values()} == {1}
        assert 1 <= one["m"][0] <= universe.label_count
        assert -3.0 <= one["u"][0] < 3 * 4 + 9
        assert -3.0 <= one["v"][0] < 3 * 4 + 9
        assert 0.0 <= one["w"][0] < 1.0
        assert one["spin_a"][0] in (-1.0, 1.0) and one["spin_b"][0] in (-1.0, 1.0)

    def test_outcomes_in_spin_range(self, universe):
        batch = draw_batch(universe, MU_45, 20_000, np.random.default_rng(7))
        assert set(np.unique(batch["spin_a"])) <= {-1.0, 1.0}
        assert set(np.unique(batch["spin_b"])) <= {-1.0, 1.0}

    def test_label_uniformity_chi_square(self, universe):
        batch = draw_batch(universe, MU_CLEAN, 1_000_000, np.random.default_rng(11))
        counts = np.bincount(batch["m"], minlength=universe.label_count + 1)[1:]
        expected = counts.sum() / universe.label_count
        stat = float(((counts - expected) ** 2 / expected).sum())
        dof = universe.label_count - 1
        assert stat < sstats.chi2.ppf(0.999, dof)

    def test_cell_occupancy_matches_masses(self, universe):
        probs = MU_CLEAN.cell_masses / MU_CLEAN.cell_masses.sum()
        trials = 1_000_000
        batch = draw_batch(universe, MU_CLEAN, trials, np.random.default_rng(13))
        counts = np.bincount(batch["cell"] + 2, minlength=probs.size)
        freq = counts / trials
        sigma = np.sqrt(probs * (1.0 - probs) / trials)
        live = probs > 0
        assert np.all(np.abs(freq[live] - probs[live]) <= 4.0 * sigma[live] + 1e-12)
        assert counts[~live].sum() == 0

    def test_weight_interval_occupancy(self, universe):
        trials = 400_000
        batch = draw_batch(universe, MU_CLEAN, trials, np.random.default_rng(17))
        # joint histogram over (label, interval) against p_{m,l} / labels
        joint = np.zeros((universe.label_count, universe.interval_count))
        np.add.at(joint, (batch["m"] - 1, batch["ell"] - 1), 1.0)
        joint /= trials
        label_weights = np.repeat(universe.weights, 2, axis=0)
        target = label_weights / universe.label_count
        sigma = np.sqrt(target * (1.0 - target) / trials)
        assert np.all(np.abs(joint - target) <= 5.0 * sigma + 1e-9)

    def test_points_live_on_relocated_diagonal(self, universe):
        batch = draw_batch(universe, MU_CLEAN, 5_000, np.random.default_rng(19))
        for m, u, v, w in zip(batch["m"][:500], batch["u"][:500], batch["v"][:500], batch["w"][:500]):
            assert layer_density(universe, int(m), MU_CLEAN, float(u), float(v), float(w)) > 0.0


class TestReproducibility:
    def test_same_seed_same_batch(self, universe):
        one = draw_batch(universe, MU_45, 50_000, np.random.default_rng(23))
        two = draw_batch(universe, MU_45, 50_000, np.random.default_rng(23))
        for key in one:
            assert np.array_equal(one[key], two[key])

    def test_run_experiment_seed_replay(self):
        est1 = sampling.run_experiment(N, A, B45, 100_000, seed=29)
        est2 = sampling.run_experiment(N, A, B45, 100_000, seed=29)
        assert est1 == est2

    def test_batch_split_invariance(self, monkeypatch):
        # same total and seed, different batch sizes: stream per batch comes
        # from the same spawn tree, so both runs are valid; means agree with
        # the target within their standard errors
        estimates = []
        for batch in (30_000, 90_000):
            monkeypatch.setattr(sampling, "BATCH", batch)
            estimates.append(sampling.run_experiment(N, A, B45, 90_000, seed=31))
        for est in estimates:
            assert abs(est["mean"] - est["exact_target"]) <= 3.29 * est["stderr"] + 5e-3


class TestStreamPosition:
    @pytest.mark.parametrize("size", [1, 1000])
    def test_draw_batch_moves_the_stream_past_its_draws(self, universe, size):
        """The oracle's draw_batch takes the atom block (the lane words, then
        a refinement word per trial in a mixed bucket), the labels and then
        four blocks of `size` doubles from `rng` itself, so a second call on
        the same stream draws new trials."""
        rng = np.random.default_rng(11)
        first = draw_batch(universe, MU_45, size, rng)
        expected = np.random.default_rng(11)
        lane_atoms(MU_45, size, expected)
        expected.integers(0, universe.label_count, size=size)
        expected.random(4 * size)
        assert rng.bit_generator.state == expected.bit_generator.state
        second = draw_batch(universe, MU_45, size, rng)
        for key in ("u", "v", "w"):
            assert not np.array_equal(first[key], second[key])


    @pytest.mark.parametrize("size", [1, 3, 4, 5, 8, 4 * sampling.SUB_CHUNK + 3])
    def test_refinement_words_start_past_the_lane_words(self, size):
        """With every lane in one mixed bucket, the kernel reads ceil(size / 4)
        lane words, then one refinement word per trial, the first of them word
        ceil(size / 4), and leaves the stream past both.  Refinement 0 finds
        the bucket's first atom and 2**64 - 1 its last, of opposite signs."""
        bucket, first, last = _split_bucket(MU_45)
        lane_words = -(-size // 4)
        lanes = np.full(4 * lane_words, bucket << 4, dtype="<u2")
        refinements = np.full(size + 1, 2**64 - 1, dtype=np.uint64)
        refinements[0] = 0
        stream = _Words(np.concatenate((lanes.view("<u8"), refinements)))
        assert sampling._plus_count(MU_45, size, stream) == first + (size - 1) * last
        assert stream.drawn == lane_words + size

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_lanes_are_read_low_bits_first(self, size):
        """Trial t reads bits 16j .. 16j + 15, j = t % 4, of word t // 4: with
        one lane in a mixed bucket whose refinement finds its first atom and
        the other lanes in a pure bucket of the other sign, only the count of
        the lane that is read moves."""
        bucket, first, last = _split_bucket(MU_45)
        pure = _pure_bucket(MU_45, 1 - first)
        for lane in range(4):
            lanes = np.full(4 * -(-size // 4), pure << 4, dtype="<u2")
            lanes[lane] = bucket << 4
            stream = _Words(np.concatenate((lanes.view("<u8"), np.zeros(1, dtype=np.uint64))))
            count = sampling._plus_count(MU_45, size, stream)
            expected = (size - 1) * (1 - first) + first if lane < size else size * (1 - first)
            assert count == expected


class TestLazyStreams:
    def test_children_match_one_spawn(self):
        streams = sampling._streams_for(5, 123)
        children = np.random.SeedSequence(123).spawn(5)
        for stream, child in zip(streams, children, strict=True):
            expected = np.random.default_rng(child)
            assert stream.bit_generator.state == expected.bit_generator.state

    def test_first_stream_of_huge_run_is_small(self):
        tracemalloc.start()
        try:
            next(sampling._streams_for(10**18, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestRunExperiment:
    @pytest.mark.parametrize(
        "trials, batch",
        [(1, 1), (2, 1), (10_007, 10_007), (10_007, 3000), (10_000, 2500), (10_001, 2500)],
    )
    def test_estimate_is_the_closed_form_of_the_plus_counts(self, monkeypatch, trials, batch):
        """Batch i of N_i trials with P_i products +1 has mean (2P_i - N_i) / N_i;
        the run's mean is (2P - N) / N and its stderr sqrt(4P(N - P) / (N^2 (N - 1)))
        for P and N summed over the batches."""
        mu = measure.build_measure(A, B45, N)
        sizes = [min(batch, trials - lo) for lo in range(0, trials, batch)]
        children = np.random.SeedSequence(61).spawn(len(sizes))
        plus = [
            _plain_plus_count(mu, size, np.random.default_rng(child))
            for size, child in zip(sizes, children)
        ]
        batch_means = []
        monkeypatch.setattr(sampling, "BATCH", batch)
        est = sampling.run_experiment(N, A, B45, trials, seed=61, batch_means=batch_means)
        assert batch_means == [(2 * p - size) / size for p, size in zip(plus, sizes)]
        total = sum(plus)
        assert est["trials"] == trials
        assert est["mean"] == (2 * total - trials) / trials
        if trials > 1:
            var = 4 * total * (trials - total) / (trials * trials * (trials - 1))
            assert est["stderr"] == math.sqrt(var)
        else:
            assert est["stderr"] == 0.0

    @pytest.mark.parametrize("angle, seed", [(10.0, 71), (30.0, 73)])
    def test_mean_is_the_normalized_pair_integral(self, angle, seed):
        """The kernel samples the mass-normalized law, whose mean is
        pair_integral / total_mass.  At n = 4 these settings have mass 1.0042
        and 1.0039, so at 4e6 trials exact_target = -a.b lies 42 and 13
        stderr from it: abs_error carries that bias."""
        b = measure.setting_from_angle(angle)
        mu = measure.build_measure(A, b, N)
        target = measure.pair_integral(mu) / measure.total_mass(mu)
        est = sampling.run_experiment(N, A, b, 4_000_000, seed=seed)
        assert abs(est["mean"] - target) <= 6.0 * est["stderr"]
        assert abs(est["exact_target"] - target) > 6.0 * est["stderr"]

    def test_equal_axis_settings_deterministic(self):
        # a = b = e1 puts all mass on the negative cells: every product is -1
        est = sampling.run_experiment(N, A, A, 4_000, seed=37)
        assert est["mean"] == -1.0
        assert est["stderr"] == 0.0
        assert est["exact_target"] == -1.0

    def test_45_degree_agreement(self):
        est = sampling.run_experiment(N, A, B45, 1_000_000, seed=41)
        assert est["trials"] == 1_000_000
        assert abs(est["mean"] - (-np.sqrt(0.5))) <= 3.29 * est["stderr"]

    def test_stderr_zero_iff_constant(self):
        est = sampling.run_experiment(N, A, B45, 20_000, seed=43)
        assert est["stderr"] > 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sampling.run_experiment(N, A, B45, 0, seed=1)

    def test_unbiased_across_seeds(self):
        means = []
        variances = []
        for seed in range(100):
            est = sampling.run_experiment(N, A, B_CLEAN, 10_000, seed=seed)
            means.append(est["mean"])
            variances.append(est["stderr"] ** 2)
        grand = float(np.mean(means))
        pooled = float(np.sqrt(np.sum(variances))) / len(means)
        assert abs(grand - (-float(np.dot(A, B_CLEAN)))) <= 3.29 * pooled


class TestChsh:
    def test_optimal_angles(self):
        a = measure.setting_from_angle(0.0)
        a2 = measure.setting_from_angle(90.0)
        b = measure.setting_from_angle(45.0)
        b2 = measure.setting_from_angle(135.0)
        est = sampling.chsh(N, a, a2, b, b2, 200_000, seed=47)
        assert abs(est["s_value"] - 2.0 * np.sqrt(2.0)) <= 3.29 * est["stderr"]

    def test_degenerate_settings(self):
        est = sampling.chsh(N, A, A, B45, B45, 100_000, seed=53)
        # S = 2|E(a,b)| <= 2 up to noise
        assert est["s_value"] <= 2.0 + 3.29 * est["stderr"]

    def test_all_equal_settings(self):
        est = sampling.chsh(N, A, A, A, A, 100_000, seed=59)
        assert abs(est["s_value"] - 2.0) <= 3.29 * est["stderr"]

    def test_requires_stream_or_seed(self):
        with pytest.raises(TypeError):
            sampling.chsh(N, A, A, B45, B45, 100)
        with pytest.raises(TypeError):
            sampling.run_experiment(N, A, B45, 100)

    @pytest.mark.parametrize("seed", [None, True, 1.5, "7", np.float64(3.0)])
    def test_seed_that_is_no_integer_is_refused(self, seed):
        # None would draw OS entropy: a run no seed can repeat
        with pytest.raises(TypeError, match="seed must be an integer"):
            streams.seed_sequence(seed)
        with pytest.raises(TypeError, match="seed must be an integer"):
            sampling.run_experiment(N, A, B45, 100, seed=seed)
        with pytest.raises(TypeError, match="seed must be an integer"):
            sampling.chsh(N, A, A, B45, B45, 100, seed=seed)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            streams.seed_sequence(-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sampling.run_experiment(N, A, B45, 100, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sampling.chsh(N, A, A, B45, B45, 100, seed=-1)

    @pytest.mark.parametrize("seed", [np.int64(29), np.random.SeedSequence(29)])
    def test_numpy_integer_and_seed_sequence_replay_the_int_seed(self, seed):
        plain = sampling.run_experiment(N, A, B45, 1_000, seed=29)
        assert sampling.run_experiment(N, A, B45, 1_000, seed=seed) == plain


class _StubStream:
    """A stub stream is its own bit generator, whose raw words are all
    `word`; advancing it changes nothing."""

    word = 0

    @property
    def bit_generator(self):
        return self

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)

    def advance(self, words):
        pass


class _Words(_StubStream):
    """Stub stream: the given raw words, in order; advancing skips words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.drawn = 0

    def random_raw(self, size):
        assert self.drawn + size <= self.words.size, "the stub has no more words"
        self.drawn += size
        return self.words[self.drawn - size : self.drawn].copy()

    def advance(self, words):
        self.drawn += words


def _split_bucket(mu):
    """The first bucket whose lowest and highest doubles find atoms of
    opposite signs, and those two signs as +1 flags."""
    cell, half_a, half_b = plain_atoms(mu, _bucket_edges(sampling.GUIDE_BUCKETS))
    signs = (mu.outcome[0][cell, half_a] * mu.outcome[1][cell, half_b] > 0).reshape(-1, 2)
    signs = signs.astype(int)
    bucket = int(np.flatnonzero(signs[:, 0] != signs[:, 1])[0])
    return bucket, int(signs[bucket, 0]), int(signs[bucket, 1])


def _pure_bucket(mu, plus):
    """The first bucket in which every double finds one atom, of sign `plus`."""
    code = sampling._sign_table(mu)[2]
    return int(np.flatnonzero(code == plus)[0])


class _TopOfRange(_StubStream):
    """Stub stream: label 0 and the largest double below 1 for every uniform;
    its words, all bits set, put every atom at u = 1 - 2**-53 too."""

    uniform = 1.0 - 2.0**-53
    word = 2**64 - 1

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out.fill(self.uniform)
        return out


class TestZeroMassCell:
    def test_top_uniform_lands_on_positive_mass(self, universe):
        # |a_z| >= 3/n empties the three trailing boundary cells at n = 4; the
        # normalized cumulative mass then often tops out just below 1
        a = measure.as_setting([0.6, 0.0, 0.8])
        rng = np.random.default_rng(83)
        for _ in range(50):
            b = rng.normal(size=3)
            mu = measure.build_measure(a, b / np.linalg.norm(b), 4)
            assert np.all(mu.cell_masses[-3:] == 0.0)
            batch = draw_batch(universe, mu, 4, _TopOfRange())
            assert np.all(mu.cell_masses[batch["cell"] + 2] > 0.0)


class _BottomOfRange(_TopOfRange):
    """Stub stream: label 0 and 0.0 for every uniform, and every atom at
    u = 0."""

    uniform = 0.0
    word = 0


class TestZeroWeightInterval:
    # rows summing to 1 within the 1e-12 tolerance, with zero weights where the
    # extreme uniforms 0 and 1 - 2**-53 would reach them without the scaling
    @pytest.mark.parametrize(
        "weights, stream",
        [
            ([0.6, 0.4 - 5e-13, 0.0], _TopOfRange()),
            ([0.0, 0.6, 0.4 - 5e-13, 0.0, 0.0], _TopOfRange()),
            ([0.0, 0.0, 1.0], _BottomOfRange()),
            ([0.0, 1.0 - 5e-13, 0.0], _BottomOfRange()),
        ],
    )
    def test_extreme_uniform_lands_on_positive_weight(self, weights, stream):
        eye = np.arange(3 * 4 + 12)
        universe = layers.LayerUniverse(4, len(weights), eye[None], eye[None], [weights])
        batch = draw_batch(universe, MU_CLEAN, 4, stream)
        assert np.all(np.asarray(weights)[batch["ell"] - 1] > 0.0)


class _LowestAtomTopOffsets(_TopOfRange):
    """Stub stream: words 0, so every atom is at u = 0, and the other
    uniforms as _TopOfRange."""

    word = 0


class TestCoordinatesInsideDraw:
    # with offsets just below 1, cell - 1 + (half + offset) / 2 rounds up onto
    # the next cell (the top atom, an upper half-cell) or the upper half-cell
    # (the lowest atom, cell 0's lower half-cells), and (ell0 + offset) / L
    # onto interval 3 of the weights below
    @pytest.mark.parametrize(
        "make_stream, atom_uniform", [(_TopOfRange, 1.0 - 2.0**-53), (_LowestAtomTopOffsets, 0.0)]
    )
    def test_extreme_offsets_stay_in_the_drawn_bins(self, make_stream, atom_uniform):
        weights = [0.6, 0.4 - 5e-13, 0.0]
        eye = np.arange(3 * 4 + 12)
        universe = layers.LayerUniverse(4, 3, eye[None], eye[None], [weights])
        batch = draw_batch(universe, MU_CLEAN, 4, make_stream())
        cell, half_a, half_b = plain_atoms(MU_CLEAN, atom_uniform)
        np.testing.assert_array_equal(batch["cell"], cell - 2)
        for key, half in (("u", half_a), ("v", half_b)):
            coord = batch[key]
            np.testing.assert_array_equal(np.floor(coord) + 1, batch["cell"])
            assert np.all((coord - np.floor(coord) >= 0.5) == half)
        np.testing.assert_array_equal(np.floor(batch["w"] * 3), batch["ell"] - 1)
        for spin, table in zip((batch["spin_a"], batch["spin_b"]), _table_spins(MU_CLEAN, batch)):
            np.testing.assert_array_equal(spin, table)

    @pytest.mark.parametrize("interval_count", [1, 3, 7, 49, 64, 1000])
    def test_interval_edges_round_trip(self, interval_count):
        # (ell0 + 0) / L can land below interval ell0 + 1 too: 1 / 49 * 49 < 1
        ell0 = np.arange(interval_count)
        for offset in (0.0, 1.0 - 2.0**-53):
            w = inside_bins((ell0 + offset) / interval_count, ell0, interval_count)
            np.testing.assert_array_equal(np.floor(w * interval_count), ell0)


# edge settings: zero and negative-zero components, +-1, mixed signs, and
# components on the knots j/n of n = 4
EDGE_SETTINGS = [
    ([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
    ([0.6, -0.0, 0.8], [0.0, -0.6, 0.8]),
    ([-0.0, 0.0, -1.0], [0.0, 0.6, -0.8]),
    ([0.5, -0.5, np.sqrt(0.5)], [-0.6, 0.8, -0.0]),
    ([-0.6, 0.8, 0.0], [0.8, -0.6, 0.0]),
]


class TestSpinsMatchLayerDefinition:
    """The paper's layer outcome at every drawn point is the flip (layer sign
    times s(ell)) times the outcome table at the drawn atom: the identity the
    kernel's products rest on."""

    @pytest.mark.parametrize("interval_count", [1, 2, 3, 64])
    @pytest.mark.parametrize("a, b", EDGE_SETTINGS)
    def test_every_draw(self, interval_count, a, b):
        a, b = measure.as_setting(a, normalize=True), measure.as_setting(b, normalize=True)
        rng = np.random.default_rng(interval_count)
        universe = layers.build_universe(4, interval_count, 3, rng)
        mu = measure.build_measure(a, b, 4)
        batch = draw_batch(universe, mu, 3000, np.random.default_rng(97))
        assert set(batch["m"] % 2) == {0, 1}
        assert np.any(batch["cell"] <= 0)
        spin_a, spin_b = _table_spins(mu, batch)
        np.testing.assert_array_equal(batch["spin_a"], spin_a)
        np.testing.assert_array_equal(batch["spin_b"], spin_b)
        plus = int(np.sum(batch["spin_a"] * batch["spin_b"] == 1.0))
        assert sampling._plus_count(mu, 3000, np.random.default_rng(97)) == plus


class TestBoundedMemory:
    def test_batch_peak_does_not_grow_with_its_size(self):
        # sub-chunks share two buffers and free their words before the next
        # draw, refined trials are settled REFINE_BATCH at a time, and no
        # per-trial array is kept: 1.8e6 more trials would add 1.7 MiB even
        # as a bool array
        mu = measure.build_measure(A, B_CLEAN, 4)
        sampling._plus_count(mu, 1000, np.random.default_rng(3))  # first-call caches
        peaks = []
        for size in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                sampling._plus_count(mu, size, np.random.default_rng(3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**16

    def test_one_million_trial_batch_at_most_1_5_mib(self):
        # the mc-chsh shape: 0.39 MiB, 1.11 MiB on a first call; a float64
        # array of the products would take 7.63 MiB
        tracemalloc.start()
        try:
            sampling.run_experiment(4, A, B45, 1_000_000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_chsh_at_most_half_a_mib(self):
        # the whole mc-chsh run, 4 x 1e6 trials one component after another
        # on the caller's thread, each with its sub-chunk's lane words,
        # buckets and codes: 0.39 MiB after a warm-up, one batch's peak
        sampling.chsh(N, A, A, B45, B_CLEAN, 1000, seed=7)  # first-call caches
        tracemalloc.start()
        try:
            sampling.chsh(N, A, A, B45, B_CLEAN, 1_000_000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20

    def test_large_order_adds_no_per_cell_float_table(self):
        # at n = 1e5 a 1000-trial batch peaks at 0.11 MiB, nearly all of it
        # the sign table's bucket edges and their two searches, one float64
        # and two intp arrays of GUIDE_BUCKETS entries at any n (searching
        # both edges at once peaked at 0.23 MiB): the atoms cover the
        # positive-mass cells only, where a float64 cumsum over all 300 012
        # cells would take 2.29 MiB, and one over all their atoms 9.16 MiB
        mu = measure.build_measure(A, B45, 100_000)
        assert mu.cell_masses.size == 300_012
        rng = np.random.default_rng(1)  # made first: numpy loads np.random on first use
        tracemalloc.start()
        try:
            sampling._plus_count(mu, 1000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * 2**20


def _universe_with_zero_weights(n, interval_count, pair_count, rng):
    """Random relocations and weight rows with zeros at random places,
    leading and trailing ones included, each row keeping a positive weight."""
    size = 3 * n + 12
    perms = rng.permuted(np.tile(np.arange(size), (2 * pair_count, 1)), axis=1)
    weights = rng.dirichlet(np.ones(interval_count), size=pair_count)
    weights[rng.random(weights.shape) < 0.5] = 0.0
    weights[np.arange(pair_count), rng.integers(0, interval_count, pair_count)] += 1.0
    weights /= weights.sum(axis=1, keepdims=True)
    return layers.LayerUniverse(n, interval_count, perms[:pair_count], perms[pair_count:], weights)


class TestLeanKernel:
    @settings(max_examples=100, deadline=None)
    @given(case=edge_cases(), seed=st.integers(0, 2**32 - 1))
    def test_draws_land_on_positive_mass_and_match_the_count(self, case, seed):
        """Property (iv): no zero-mass cell and no zero-weight interval is
        ever drawn, and the kernel's +1 count is that of the oracle's
        spin_a*spin_b, the layer outcomes at the drawn points, on the same
        stream, also on the stub streams."""
        n, a, b = case
        mu = measure.build_measure(*(measure.as_setting(v, normalize=True) for v in (a, b)), n)
        rng = np.random.default_rng(seed)
        uni = _universe_with_zero_weights(n, int(rng.integers(1, 9)), int(rng.integers(1, 6)), rng)
        # each maker gives a fresh copy of the same stream
        for stream in (functools.partial(np.random.default_rng, seed), _TopOfRange, _BottomOfRange):
            batch = draw_batch(uni, mu, 500, stream())
            assert np.all(mu.cell_masses[batch["cell"] + 2] > 0.0)
            assert np.all(uni.weights[(batch["m"] - 1) // 2, batch["ell"] - 1] > 0.0)
            plus = int(np.sum(batch["spin_a"] * batch["spin_b"] == 1.0))
            assert sampling._plus_count(mu, 500, stream()) == plus

    @pytest.mark.parametrize("sub_chunk", [1000, 4097])
    def test_sub_chunks_change_no_count(self, monkeypatch, sub_chunk):
        mu = measure.build_measure(A, B45, 5)
        whole = sampling._plus_count(mu, 10_007, np.random.default_rng(9))
        estimate = sampling.run_experiment(5, A, B45, 10_007, seed=9)
        monkeypatch.setattr(sampling, "SUB_CHUNK", sub_chunk)
        assert sampling._plus_count(mu, 10_007, np.random.default_rng(9)) == whole
        assert sampling.run_experiment(5, A, B45, 10_007, seed=9) == estimate

    @pytest.mark.parametrize("n", [4, 5, 8])
    @pytest.mark.parametrize("size", [1, 7, 4 * sampling.SUB_CHUNK + 3])
    def test_count_follows_the_stream(self, n, size):
        """For several settings the kernel's count is the per-trial oracle's
        on the same stream, and it leaves the stream just past the lane
        words and the refinement words."""
        g = np.random.default_rng(n)
        for a, b in [(A, B45), *((random_unit_vector(g), random_unit_vector(g)) for _ in range(2))]:
            mu = measure.build_measure(a, b, n)
            rng, expected = np.random.default_rng(size), np.random.default_rng(size)
            assert sampling._plus_count(mu, size, rng) == _plain_plus_count(mu, size, expected)
            assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("refine_batch", [1, 5, sampling.REFINE_BATCH])
    @pytest.mark.parametrize("buckets", [1, sampling.GUIDE_BUCKETS])
    @pytest.mark.parametrize("size", [4 * 12 + 3, 1003])
    def test_refinements_cross_sub_chunks(self, monkeypatch, refine_batch, buckets, size):
        """Sub-chunks of 12 trials: the refinement words run on from one
        sub-chunk into the next, whether the waiting trials are settled
        after each sub-chunk, every few or only at the end; at one bucket
        every trial takes one."""
        monkeypatch.setattr(sampling, "SUB_CHUNK", 12)
        monkeypatch.setattr(sampling, "REFINE_BATCH", refine_batch)
        monkeypatch.setattr(sampling, "GUIDE_BUCKETS", buckets)
        rng, expected = np.random.default_rng(size), np.random.default_rng(size)
        count = sampling._plus_count(MU_45, size, rng)
        assert count == _plain_plus_count(MU_45, size, expected, buckets)
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_count_follows_every_stream_advancing_by_words(self, bit_generator):
        """On each bit generator whose `advance` counts 64-bit words the
        kernel gives the oracle's count and stream position."""
        mu = measure.build_measure(A, B45, 5)
        size = 2 * sampling.SUB_CHUNK + 11
        rng, expected = (np.random.Generator(bit_generator(17)) for _ in range(2))
        assert sampling._plus_count(mu, size, rng) == _plain_plus_count(mu, size, expected)
        np.testing.assert_equal(rng.bit_generator.state, expected.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_generator_not_advancing_by_words_is_refused_before_a_draw(self, bit_generator):
        """MT19937 and SFC64 cannot advance and Philox advances by blocks of
        four words, so none can position the refinement words: the kernel
        refuses them and draws nothing."""
        rng = np.random.Generator(bit_generator(17))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=bit_generator.__name__):
            sampling._plus_count(MU_45, 100, rng)
        np.testing.assert_equal(rng.bit_generator.state, state)


class TestAtomLaw:
    @settings(max_examples=25, deadline=None)
    @given(case=edge_cases(), seed=st.integers(0, 2**32 - 1))
    def test_atom_frequencies_chi_square(self, case, seed):
        """The oracle's (cell, half_a, half_b), read back from the cell and
        the half-cells of u and v, against the law m_c / 4 over the
        positive-mass cells, below the 1 - 1e-9 chi-square quantile.  Atoms
        expected fewer than 5 times are pooled with the likeliest one."""
        n, a, b = case
        mu = measure.build_measure(*(measure.as_setting(v, normalize=True) for v in (a, b)), n)
        uni = layers.build_universe(n, 1, 1, np.random.default_rng(seed))
        trials = 100_000
        batch = draw_batch(uni, mu, trials, np.random.default_rng(seed))
        pos = np.flatnonzero(mu.cell_masses)
        assert np.all(np.isin(batch["cell"] + 2, pos))
        half_a, half_b = (np.floor(2 * batch[key]).astype(np.int64) % 2 for key in ("u", "v"))
        atom = 4 * np.searchsorted(pos, batch["cell"] + 2) + 2 * half_a + half_b
        counts = np.bincount(atom, minlength=4 * pos.size)
        masses = np.repeat(mu.cell_masses[pos] / 4, 4)
        expected = trials * masses / masses.sum()
        small = expected < 5
        top = np.argmax(expected)
        counts[top] += counts[small].sum()
        expected[top] += expected[small].sum()
        counts, expected = counts[~small], expected[~small]
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < sstats.chi2.isf(1e-9, counts.size - 1)


def _bucket_edges(buckets):
    """The lowest and the highest double of every bucket of u, i / B and
    (i + 1) / B - 2**-53, interleaved: from 0 up to 1 - 2**-53."""
    low = np.arange(buckets) / buckets
    return np.stack((low, low + (1 / buckets - 2.0**-53)), axis=1).ravel()


def _bucket_edge_words(buckets, chosen=None):
    """The lane words and refinement words of four trials per bucket of u,
    of every bucket or of those `chosen`: the bucket's lowest and highest
    lane, twice, (low, high, low, high), in one word, then the refinement
    words 0, 2**64 - 1, 2**64 - 1, 0 for each bucket.  A mixed bucket's
    trials take its lowest and its highest numerator, each from a lowest
    and from a highest lane."""
    width = 16 - (buckets.bit_length() - 1)
    chosen = np.arange(buckets, dtype=np.uint64) if chosen is None else np.asarray(chosen, np.uint64)
    low = chosen << np.uint64(width)
    high = low | np.uint64((1 << width) - 1)
    lanes = np.stack((low, high, low, high), axis=1).astype("<u2").ravel()
    refinements = np.tile(np.array([0, 2**64 - 1, 2**64 - 1, 0], dtype=np.uint64), chosen.size)
    return np.concatenate((lanes.view("<u8"), refinements))


class TestSignTable:
    @settings(max_examples=200, deadline=None)
    @given(case=edge_cases())
    def test_codes_are_searchsorted_at_the_bucket_edges(self, case):
        """A bucket's code is the sign `searchsorted` in the atom cumsum gives
        at both its edges where it finds one atom there, and 2 (mixed) exactly
        where it finds two; every edge, u = 0 and 1 - 2**-53 among them, lands
        on a positive-mass atom, and at those two `plus` holds its sign."""
        n, a, b = case
        mu = measure.build_measure(*(measure.as_setting(v, normalize=True) for v in (a, b)), n)
        pos = np.flatnonzero(mu.cell_masses)
        cum = np.cumsum(np.repeat(mu.cell_masses[pos] / 4, 4))
        edges = _bucket_edges(sampling.GUIDE_BUCKETS)
        atom = np.searchsorted(cum, edges * cum[-1], side="right").reshape(-1, 2)
        cell, half_a, half_b = plain_atoms(mu, edges)
        plus = mu.outcome[0][cell, half_a] * mu.outcome[1][cell, half_b] > 0
        table_cum, table_plus, code = sampling._sign_table(mu)
        np.testing.assert_array_equal(table_cum, cum)
        one = atom[:, 0] == atom[:, 1]
        np.testing.assert_array_equal(code == 2, ~one)
        np.testing.assert_array_equal(code[one], plus.reshape(-1, 2)[one, 0])
        # each found atom moves the sum: its mass is not lost in rounding
        assert np.all(np.diff(cum, prepend=0.0)[atom] > 0.0)
        np.testing.assert_array_equal(table_plus[atom[[0, -1], [0, 1]]], plus[[0, -1]])

    @settings(max_examples=100, deadline=None)
    @given(case=edge_cases())
    def test_count_on_the_bucket_edges_is_the_oracle_count(self, case):
        """On the lowest and highest lane of every bucket, with refinement
        words 0 and 2**64 - 1, the kernel's count and stream position are the
        oracle's, and no atom the oracle draws there has a mass too small to
        move the cumsum: u = 0 and 1 - 2**-53 among them."""
        n, a, b = case
        mu = measure.build_measure(*(measure.as_setting(v, normalize=True) for v in (a, b)), n)
        words = _bucket_edge_words(sampling.GUIDE_BUCKETS)
        size = 4 * sampling.GUIDE_BUCKETS
        stream, expected = _Words(words), _Words(words)
        cell, half_a, half_b = lane_atoms(mu, size, expected)
        assert sampling._plus_count(mu, size, stream) == _plus_of(mu, cell, half_a, half_b)
        assert stream.drawn == expected.drawn
        pos = np.flatnonzero(mu.cell_masses)
        cum = np.cumsum(np.repeat(mu.cell_masses[pos] / 4, 4))
        atom = 4 * np.searchsorted(pos, cell) + 2 * half_a + half_b
        assert np.all(np.diff(cum, prepend=0.0)[atom] > 0.0)

    @pytest.mark.parametrize("buckets", [1, 2**16])
    @settings(max_examples=25, deadline=None)
    @given(case=edge_cases(), seed=st.integers(0, 2**32 - 1))
    def test_any_bucket_count_gives_the_oracle_count(self, buckets, case, seed):
        """One bucket sends every trial to a refinement word, whose top 53
        bits are then the whole numerator; 2**16 buckets read all 16 lane
        bits.  The bucket count decides which trials take a refinement word,
        so the kernel is held to the oracle at the same count: on a random
        stream, and on the edges of the buckets next to each atom boundary."""
        n, a, b = case
        mu = measure.build_measure(*(measure.as_setting(v, normalize=True) for v in (a, b)), n)
        cum = np.cumsum(np.repeat(mu.cell_masses[np.flatnonzero(mu.cell_masses)] / 4, 4))
        near = (cum / cum[-1] * buckets).astype(np.int64)[:, None] + [-1, 0, 1]
        chosen = np.unique(np.clip(np.append(near, [0, buckets - 1]), 0, buckets - 1))
        words = _bucket_edge_words(buckets, chosen)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "GUIDE_BUCKETS", buckets)
            rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sampling._plus_count(mu, 5000, rng) == _plain_plus_count(
                mu, 5000, expected, buckets
            )
            assert rng.bit_generator.state == expected.bit_generator.state
            size = 4 * chosen.size
            assert sampling._plus_count(mu, size, _Words(words)) == _plain_plus_count(
                mu, size, _Words(words), buckets
            )


class TestProductsIgnoreLayers:
    def test_relocations_weights_and_label_count_change_no_product(self):
        """Both spins carry the same flip (layer sign times s(ell)), so A*B
        depends on the drawn atom only: universes with other label counts,
        relocations, weights and L give the same spin products from the same
        stream, whose +1 count the kernel makes from n alone."""
        narrow = layers.build_universe(4, 1, 25, np.random.default_rng(1))
        wide = _universe_with_zero_weights(4, 64, 7, np.random.default_rng(2))
        assert narrow.label_count != wide.label_count
        products = []
        for uni in (narrow, wide):
            batch = draw_batch(uni, MU_45, 100_000, np.random.default_rng(3))
            products.append(batch["spin_a"] * batch["spin_b"])
        np.testing.assert_array_equal(*products)
        assert set(np.unique(products[0])) == {-1.0, 1.0}
        kernel = sampling._plus_count(MU_45, 100_000, np.random.default_rng(3))
        assert kernel == int(np.sum(products[0] == 1.0))
