import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from eprsim import layers, measure, sampling

from oracles import layer_density, layer_spin_a, layer_spin_b
from strategies import edge_cases

A = measure.as_setting([1.0, 0.0, 0.0])
B45 = measure.as_setting([np.sqrt(0.5), np.sqrt(0.5), 0.0], normalize=True)
# this pair has zero clip defect at n=4, so the sampled law hits -a.b exactly
B_CLEAN = measure.as_setting([0.6, 0.8, 0.0])


@pytest.fixture(scope="module")
def universe():
    return layers.build_universe(4, 2, 50, np.random.default_rng(301))


class TestDraw:
    def test_single_draw_shape(self, universe):
        one = sampling.draw_batch(universe, A, B_CLEAN, 1, np.random.default_rng(5))
        assert {len(value) for value in one.values()} == {1}
        assert 1 <= one["m"][0] <= universe.label_count
        assert -3.0 <= one["u"][0] < 3 * 4 + 9
        assert -3.0 <= one["v"][0] < 3 * 4 + 9
        assert 0.0 <= one["w"][0] < 1.0
        assert one["spin_a"][0] in (-1.0, 1.0) and one["spin_b"][0] in (-1.0, 1.0)

    def test_outcomes_in_spin_range(self, universe):
        batch = sampling.draw_batch(universe, A, B45, 20_000, np.random.default_rng(7))
        assert set(np.unique(batch["spin_a"])) <= {-1.0, 1.0}
        assert set(np.unique(batch["spin_b"])) <= {-1.0, 1.0}

    def test_label_uniformity_chi_square(self, universe):
        batch = sampling.draw_batch(universe, A, B_CLEAN, 1_000_000, np.random.default_rng(11))
        counts = np.bincount(batch["m"], minlength=universe.label_count + 1)[1:]
        expected = counts.sum() / universe.label_count
        stat = float(((counts - expected) ** 2 / expected).sum())
        dof = universe.label_count - 1
        assert stat < sstats.chi2.ppf(0.999, dof)

    def test_cell_occupancy_matches_masses(self, universe):
        mu = measure.build_measure(A, B_CLEAN, 4)
        probs = mu.cell_masses / mu.cell_masses.sum()
        trials = 1_000_000
        batch = sampling.draw_batch(universe, A, B_CLEAN, trials, np.random.default_rng(13))
        counts = np.bincount(batch["cell"] + 2, minlength=probs.size)
        freq = counts / trials
        sigma = np.sqrt(probs * (1.0 - probs) / trials)
        live = probs > 0
        assert np.all(np.abs(freq[live] - probs[live]) <= 4.0 * sigma[live] + 1e-12)
        assert counts[~live].sum() == 0

    def test_weight_interval_occupancy(self, universe):
        trials = 400_000
        batch = sampling.draw_batch(universe, A, B_CLEAN, trials, np.random.default_rng(17))
        # joint histogram over (label, interval) against p_{m,l} / labels
        joint = np.zeros((universe.label_count, universe.interval_count))
        np.add.at(joint, (batch["m"] - 1, batch["ell"] - 1), 1.0)
        joint /= trials
        label_weights = np.repeat(universe.weights, 2, axis=0)
        target = label_weights / universe.label_count
        sigma = np.sqrt(target * (1.0 - target) / trials)
        assert np.all(np.abs(joint - target) <= 5.0 * sigma + 1e-9)

    def test_points_live_on_relocated_diagonal(self, universe):
        batch = sampling.draw_batch(universe, A, B_CLEAN, 5_000, np.random.default_rng(19))
        mu = measure.build_measure(A, B_CLEAN, 4)
        for m, u, v, w in zip(batch["m"][:500], batch["u"][:500], batch["v"][:500], batch["w"][:500]):
            assert layer_density(universe, int(m), mu, float(u), float(v), float(w)) > 0.0


class TestReproducibility:
    def test_same_seed_same_batch(self, universe):
        one = sampling.draw_batch(universe, A, B45, 50_000, np.random.default_rng(23))
        two = sampling.draw_batch(universe, A, B45, 50_000, np.random.default_rng(23))
        for key in one:
            assert np.array_equal(one[key], two[key])

    def test_run_experiment_seed_replay(self, universe):
        est1 = sampling.run_experiment(universe, A, B45, 100_000, seed=29)
        est2 = sampling.run_experiment(universe, A, B45, 100_000, seed=29)
        assert est1 == est2

    def test_batch_split_invariance(self, universe):
        # same total and seed, different batch sizes: stream per batch comes
        # from the same spawn tree, so both runs are valid; means agree with
        # the target within their standard errors
        est_small = sampling.run_experiment(universe, A, B45, 90_000, seed=31, batch_size=30_000)
        est_big = sampling.run_experiment(universe, A, B45, 90_000, seed=31, batch_size=90_000)
        for est in (est_small, est_big):
            assert abs(est.mean - est.exact_target) <= 3.29 * est.stderr + 5e-3


class TestLazyStreams:
    def test_children_match_one_spawn(self):
        streams = sampling._streams_for(10 * 5, 10, 123)
        children = np.random.SeedSequence(123).spawn(5)
        for stream, child in zip(streams, children, strict=True):
            expected = np.random.default_rng(child)
            assert stream.bit_generator.state == expected.bit_generator.state

    def test_first_stream_of_huge_run_is_small(self):
        tracemalloc.start()
        try:
            next(sampling._streams_for(10**18, 1, 7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestRunExperiment:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, universe, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            sampling.run_experiment(universe, A, B45, 100, seed=1, batch_size=batch_size)

    def test_equal_axis_settings_deterministic(self, universe):
        # a = b = e1 puts all mass on the negative cells: every product is -1
        est = sampling.run_experiment(universe, A, A, 4_000, seed=37)
        assert est.mean == -1.0
        assert est.stderr == 0.0
        assert est.exact_target == -1.0

    def test_45_degree_agreement(self, universe):
        est = sampling.run_experiment(universe, A, B45, 1_000_000, seed=41)
        assert est.trials == 1_000_000
        assert abs(est.mean - (-np.sqrt(0.5))) <= 3.29 * est.stderr

    def test_stderr_zero_iff_constant(self, universe):
        est = sampling.run_experiment(universe, A, B45, 20_000, seed=43)
        assert est.stderr > 0.0

    def test_trials_validated(self, universe):
        with pytest.raises(ValueError):
            sampling.run_experiment(universe, A, B45, 0, seed=1)

    def test_unbiased_across_seeds(self, universe):
        means = []
        variances = []
        for seed in range(100):
            est = sampling.run_experiment(universe, A, B_CLEAN, 10_000, seed=seed)
            means.append(est.mean)
            variances.append(est.stderr**2)
        grand = float(np.mean(means))
        pooled = float(np.sqrt(np.sum(variances))) / len(means)
        assert abs(grand - (-float(np.dot(A, B_CLEAN)))) <= 3.29 * pooled


class TestChsh:
    def test_optimal_angles(self, universe):
        a = measure.setting_from_angle(0.0)
        a2 = measure.setting_from_angle(90.0)
        b = measure.setting_from_angle(45.0)
        b2 = measure.setting_from_angle(135.0)
        est = sampling.chsh(universe, a, a2, b, b2, 200_000, seed=47)
        assert abs(est.s_value - 2.0 * np.sqrt(2.0)) <= 3.29 * est.stderr

    def test_degenerate_settings(self, universe):
        est = sampling.chsh(universe, A, A, B45, B45, 100_000, seed=53)
        # S = 2|E(a,b)| <= 2 up to noise
        assert est.s_value <= 2.0 + 3.29 * est.stderr

    def test_all_equal_settings(self, universe):
        est = sampling.chsh(universe, A, A, A, A, 100_000, seed=59)
        assert abs(est.s_value - 2.0) <= 3.29 * est.stderr

    def test_requires_stream_or_seed(self, universe):
        with pytest.raises(ValueError):
            sampling.chsh(universe, A, A, B45, B45, 100)


class _TopOfRange:
    """Stub stream: label 0 and the largest double below 1 for every uniform."""

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


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
            batch = sampling.draw_batch(universe, mu.a, mu.b, 4, _TopOfRange())
            assert np.all(mu.cell_masses[batch["cell"] + 2] > 0.0)


class _BottomOfRange(_TopOfRange):
    """Stub stream: label 0 and 0.0 for every uniform."""

    def random(self, size):
        return np.zeros(size)


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
        batch = sampling.draw_batch(universe, A, B_CLEAN, 4, stream)
        assert np.all(np.asarray(weights)[batch["ell"] - 1] > 0.0)


class _BelowHalf(_TopOfRange):
    """Stub stream: label 0 and the largest double below 1/2 for every uniform."""

    def random(self, size):
        return np.full(size, 0.5 - 2.0**-54)


class TestCoordinatesInsideDraw:
    # with these offsets, cell - 1 + offset rounds up onto the next cell
    # (top) or the upper half-cell (below half), and (ell0 + offset) / L onto
    # interval 3 of the weights below (top)
    @pytest.mark.parametrize("stream", [_TopOfRange(), _BelowHalf()])
    def test_extreme_offsets_stay_in_the_drawn_bins(self, stream):
        weights = [0.6, 0.4 - 5e-13, 0.0]
        eye = np.arange(3 * 4 + 12)
        universe = layers.LayerUniverse(4, 3, eye[None], eye[None], [weights])
        batch = sampling.draw_batch(universe, A, B_CLEAN, 4, stream)
        upper = stream.random(1)[0] >= 0.5
        for key in ("u", "v"):
            coord = batch[key]
            np.testing.assert_array_equal(np.floor(coord) + 1, batch["cell"])
            assert np.all((coord - np.floor(coord) >= 0.5) == upper)
        np.testing.assert_array_equal(np.floor(batch["w"] * 3), batch["ell"] - 1)
        np.testing.assert_array_equal(
            batch["spin_a"], layer_spin_a(universe, 1, A, batch["u"], batch["w"])
        )
        np.testing.assert_array_equal(
            batch["spin_b"], layer_spin_b(universe, 1, B_CLEAN, batch["v"], batch["w"])
        )

    @pytest.mark.parametrize("interval_count", [1, 3, 7, 49, 64, 1000])
    def test_interval_edges_round_trip(self, interval_count):
        # (ell0 + 0) / L can land below interval ell0 + 1 too: 1 / 49 * 49 < 1
        ell0 = np.arange(interval_count)
        for offset in (0.0, 1.0 - 2.0**-53):
            w = sampling._inside((ell0 + offset) / interval_count, ell0, interval_count)
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
    """Every sampled spin equals the paper's layer outcome at the sampled point."""

    @pytest.mark.parametrize("interval_count", [1, 2, 3, 64])
    @pytest.mark.parametrize("a, b", EDGE_SETTINGS)
    def test_every_draw(self, interval_count, a, b):
        a, b = measure.as_setting(a, normalize=True), measure.as_setting(b, normalize=True)
        rng = np.random.default_rng(interval_count)
        universe = layers.build_universe(4, interval_count, 3, rng)
        batch = sampling.draw_batch(universe, a, b, 3000, np.random.default_rng(97))
        assert set(batch["m"] % 2) == {0, 1}
        assert np.any(batch["cell"] <= 0)
        for m in np.unique(batch["m"]):
            sel = batch["m"] == m
            u, v, w = batch["u"][sel], batch["v"][sel], batch["w"][sel]
            expect_a = layer_spin_a(universe, int(m), a, u, w)
            expect_b = layer_spin_b(universe, int(m), b, v, w)
            np.testing.assert_array_equal(batch["spin_a"][sel], expect_a)
            np.testing.assert_array_equal(batch["spin_b"][sel], expect_b)


class TestBoundedMemory:
    def test_batch_allocates_no_trials_by_intervals_array(self):
        wide = layers.build_universe(4, 256, 20, np.random.default_rng(2))
        mu = measure.build_measure(A, B_CLEAN, 4)
        tracemalloc.start()
        try:
            sampling._products(wide, mu, 200_000, np.random.default_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float64 [trials, L] array alone would take 410 MB
        assert peak < 64 * 2**20

    def test_one_million_trial_batch_at_most_30_mb(self):
        # the mc-chsh shape: every draw is narrowed as it is made, the
        # post-draw work runs in chunks, and only the product is float64
        wide = layers.build_universe(4, 64, 50, np.random.default_rng(5))
        tracemalloc.start()
        try:
            sampling.run_experiment(wide, A, B45, 1_000_000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20


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
    def test_draws_land_on_positive_mass_and_match_products(self, case, seed):
        """Property (iv): no zero-mass cell and no zero-weight interval is
        ever drawn, and the kernel's products are draw_batch's spin_a*spin_b."""
        n, a, b = case
        mu = measure.build_measure(*(measure.as_setting(v, normalize=True) for v in (a, b)), n)
        rng = np.random.default_rng(seed)
        uni = _universe_with_zero_weights(n, int(rng.integers(1, 9)), int(rng.integers(1, 6)), rng)
        # each maker gives a fresh copy of the same stream
        for stream in (functools.partial(np.random.default_rng, seed), _TopOfRange, _BottomOfRange):
            batch = sampling.draw_batch(uni, mu.a, mu.b, 500, stream())
            assert np.all(mu.cell_masses[batch["cell"] + 2] > 0.0)
            assert np.all(uni.weights[(batch["m"] - 1) // 2, batch["ell"] - 1] > 0.0)
            products = sampling._products(uni, mu, 500, stream())
            assert products.dtype == np.int8
            np.testing.assert_array_equal(products, batch["spin_a"] * batch["spin_b"])

    def test_chunking_changes_no_trial(self, monkeypatch):
        wide = layers.build_universe(5, 64, 7, np.random.default_rng(8))
        mu = measure.build_measure(A, B45, 5)
        whole = sampling.draw_batch(wide, A, B45, 10_007, np.random.default_rng(9))
        products = sampling._products(wide, mu, 10_007, np.random.default_rng(9))
        monkeypatch.setattr(sampling, "CHUNK", 1000)
        chunked = sampling.draw_batch(wide, A, B45, 10_007, np.random.default_rng(9))
        for key in whole:
            np.testing.assert_array_equal(chunked[key], whole[key])
        np.testing.assert_array_equal(
            sampling._products(wide, mu, 10_007, np.random.default_rng(9)), products
        )


class TestProductsIgnoreLayers:
    def test_relocations_weights_and_interval_count_change_no_product(self):
        """Both spins carry the same flip (layer sign times s(ell)), so A*B
        depends on the drawn cell and half-cells only: universes with the same
        label count but other relocations, weights and L give the same products
        from the same stream."""
        narrow = layers.build_universe(4, 1, 25, np.random.default_rng(1))
        wide = _universe_with_zero_weights(4, 64, 25, np.random.default_rng(2))
        assert narrow.label_count == wide.label_count
        assert not np.array_equal(narrow.col_to, wide.col_to)
        assert not np.array_equal(narrow.row_to, wide.row_to)
        mu = measure.build_measure(A, B45, 4)
        products = [
            sampling._products(uni, mu, 100_000, np.random.default_rng(3)) for uni in (narrow, wide)
        ]
        np.testing.assert_array_equal(*products)
        assert set(np.unique(products[0])) == {-1, 1}
