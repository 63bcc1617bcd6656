import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import analysis, layers, measure

from oracles import (
    all_cells_dependence_report,
    all_cells_outcome_biases,
    all_cells_outcome_mass,
    all_cells_table,
    brute_conditional_marginal,
    loop_conditional_outcome_bias,
    loop_dependence_report,
    loop_outcome_mass,
    loop_pair_expectation,
    loop_station_pair_joint,
    random_unit_vector,
)
from strategies import edge_pair, edge_setting

A = measure.as_setting([1.0, 0.0, 0.0])
B60 = measure.as_setting([0.5, np.sqrt(3.0) / 2.0, 0.0], normalize=True)
B = measure.as_setting([0.6, 0.8, 0.0])
C = measure.as_setting([0.0, 0.28, 0.96], normalize=True)
MU_AB = measure.build_measure(A, B, 4)
MU_AC = measure.build_measure(A, C, 4)


def joint_table(universe, mu) -> np.ndarray:
    """The (column, row) joint law `dependence_report` bins, over the
    positive-mass cells."""
    masses = analysis._normalized_masses(mu)
    pos = np.flatnonzero(masses)
    bins = analysis._cell_pair_bins(universe, pos)
    return analysis._bin_pairs(bins, masses[pos], masses.size, np.ones(universe.pair_count))


@pytest.fixture(scope="module")
def universe():
    return layers.build_universe(4, 3, 40, np.random.default_rng(101))


@pytest.fixture(scope="module")
def tied_universe():
    return layers.build_universe(4, 3, 40, np.random.default_rng(103), tie_weights=True)


class TestPairExpectation:
    def test_equal_settings(self, universe):
        mu = measure.build_measure(A, A, 4)
        assert analysis.pair_expectation(universe, mu) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self, universe):
        mu = measure.build_measure(A, [0, 1, 0], 4)
        assert analysis.pair_expectation(universe, mu) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degrees(self, universe):
        mu = measure.build_measure(A, B60, 4)
        assert analysis.pair_expectation(universe, mu) == pytest.approx(-0.5, abs=1e-12)

    def test_random_settings_all_pair_counts(self):
        rng = np.random.default_rng(107)
        for pairs in (1, 2, 7):
            uni = layers.build_universe(4, 2, pairs, rng)
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            got = analysis.pair_expectation(uni, measure.build_measure(a, b, 4))
            assert got == pytest.approx(-float(np.dot(a, b)), abs=1e-12)


class TestConditionalOutcomeBias:
    def test_zero_with_companions(self, universe):
        for side, (intact, _) in analysis.outcome_biases(universe, MU_AB).items():
            assert intact <= 1e-12, side

    def test_zero_for_single_pair(self):
        uni = layers.build_universe(4, 2, 1, np.random.default_rng(109))
        assert analysis.outcome_biases(uni, MU_AB)["A"][0] == 0.0

    def test_source_level_zero(self, universe):
        assert loop_conditional_outcome_bias(universe, MU_AB, "A", False, "source") <= 1e-12

    def test_witness_without_companions(self, universe):
        # removing the sign-flipped twins breaks the cancellation mechanism
        for side, (_, witness) in analysis.outcome_biases(universe, MU_AB).items():
            assert witness > 0.1, side

    @pytest.mark.parametrize(
        "pairs, interval_count, seed",
        [
            # as `layers --n 4 --layers 10000 --L 3 --seed 7` builds it
            (10_000, 3, 7),
            (20_000, 2, 3),
        ],
    )
    def test_witness_at_most_one(self, pairs, interval_count, seed):
        # one sum per sign keeps |P - Q| <= P + Q through rounding; at these
        # universes a ratio of sums of other shapes rounded above 1
        uni = layers.build_universe(4, interval_count, pairs, np.random.default_rng(seed))
        for side, (intact, witness) in analysis.outcome_biases(uni, MU_AB).items():
            assert intact == 0.0, side
            assert witness <= 1.0, side

    def test_outcome_mass_matches_loop_where_bins_mix(self):
        # at M = 1e4 every (half, position, interval) bin of side A holds
        # cells of both outcome signs, so the witness drops well below 1 and
        # the per-bin sums tell each side's relocation from the other's
        a = measure.as_setting([0.6, -0.8, 0.0])
        uni = layers.build_universe(4, 2, 10_000, np.random.default_rng(137))
        mu = measure.build_measure(a, B, 4)
        for k, side in enumerate("AB"):
            got = analysis._outcome_mass(uni, mu, k)
            want = loop_outcome_mass(uni, mu, side)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
        assert analysis.outcome_biases(uni, mu)["A"][1] < 0.5


class TestDependenceReport:
    def test_fields_in_unit_interval(self, universe):
        rep = analysis.dependence_report(universe, MU_AB, MU_AC)
        for name, value in rep.items():
            assert 0.0 <= value <= 1.0, name

    def test_conditional_independence_exact(self, universe):
        rep = analysis.dependence_report(universe, MU_AB, MU_AC)
        assert rep["tv_cond_indep"] <= 1e-12

    def test_conditional_pair_dependence_positive(self, universe):
        rep = analysis.dependence_report(universe, MU_AB, MU_AC)
        assert rep["cond_pair_dependence"] > 0.0

    def test_setting_shift_positive_and_matches_oracle(self, universe):
        rep = analysis.dependence_report(universe, MU_AB, MU_AC)
        assert rep["setting_shift"] > 0.0
        best = 0.0
        for col_to in universe.col_to:  # a pair's two labels share col_to
            m_ab = brute_conditional_marginal(col_to, MU_AB.cell_masses)
            m_ac = brute_conditional_marginal(col_to, MU_AC.cell_masses)
            best = max(best, 0.5 * float(np.abs(m_ab - m_ac).sum()))
        assert rep["setting_shift"] == pytest.approx(best, abs=1e-12)

    def test_generic_weights_couple_label_and_source(self, universe):
        rep = analysis.dependence_report(universe, MU_AB, MU_AC)
        assert rep["r_lambda_dependence"] > 0.0
        assert rep["factorization_defect"] > 0.0

    def test_tied_weights_decouple_label_and_source(self, tied_universe):
        rep = analysis.dependence_report(tied_universe, MU_AB, MU_AC)
        assert rep["r_lambda_dependence"] <= 1e-12
        assert rep["factorization_defect"] <= 1e-12

    def test_joint_vs_product_shrinks_with_pairs(self):
        small = layers.build_universe(4, 1, 10, np.random.default_rng(211))
        large = layers.build_universe(4, 1, 2000, np.random.default_rng(211))
        mu_ac = measure.build_measure(A, [0, 0, 1.0], 4)
        rep_small = analysis.dependence_report(small, MU_AB, mu_ac)
        rep_large = analysis.dependence_report(large, MU_AB, mu_ac)
        assert rep_large["tv_joint_vs_product"] < rep_small["tv_joint_vs_product"]
        assert rep_large["marginal_uniformity"] < rep_small["marginal_uniformity"]

    def test_rejects_equal_alternate_setting(self, universe):
        with pytest.raises(ValueError):
            analysis.dependence_report(universe, MU_AB, MU_AB)
        # the same bits in another array are the same setting b
        twin = measure.build_measure(A, B.copy(), 4)
        with pytest.raises(ValueError, match="alternate setting c must differ from b"):
            analysis.dependence_report(universe, MU_AB, twin)

    def test_a_setting_c_near_b_is_another_setting(self, universe):
        # a unit setting 4e-6 from b, within numpy's default allclose rtol of it
        c = measure.as_setting([0.6000039999925, 0.79999699999, 0.0])
        assert np.allclose(B, c) and not np.array_equal(B, c)
        rep = analysis.dependence_report(universe, MU_AB, measure.build_measure(A, c, 4))
        assert rep["setting_shift"] > 0.0


class TestMeasureChecks:
    """The analysis takes measures built by its caller, and refuses any that
    do not fit the universe or each other."""

    def test_a_measure_of_another_order_is_refused(self, universe):
        mu_ab, mu_ac = (measure.build_measure(A, x, 5) for x in (B, C))
        calls = [
            lambda: analysis.pair_expectation(universe, mu_ab),
            lambda: analysis.outcome_biases(universe, mu_ab),
            lambda: analysis.dependence_report(universe, mu_ab, MU_AC),
            lambda: analysis.dependence_report(universe, MU_AB, mu_ac),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="order n = 5 on a universe of n = 4"):
                call()

    def test_dependence_report_refuses_two_settings_a(self, universe):
        mu_bc = measure.build_measure(B, C, 4)
        with pytest.raises(ValueError, match="share setting a"):
            analysis.dependence_report(universe, MU_AB, mu_bc)
        # the same bits in another array are the same setting a
        twin = measure.build_measure(A.copy(), C, 4)
        assert twin.a is not MU_AB.a
        analysis.dependence_report(universe, MU_AB, twin)


class TestStationMarginalSettingDependence:
    def test_marginal_shift_shrinks_with_pairs(self):
        # For the full enumeration the station marginal is exactly uniform by
        # symmetry, hence setting-free; under sampling it is only
        # approximately so, with the defect shrinking as pairs grow.
        def marginal_tv(pairs, seed=509):
            uni = layers.build_universe(4, 1, pairs, np.random.default_rng(seed))
            mu_ab = measure.build_measure(A, B, 4)
            mu_ac = measure.build_measure(A, C, 4)
            pu_ab = loop_station_pair_joint(uni, mu_ab).sum(axis=1)
            pu_ac = loop_station_pair_joint(uni, mu_ac).sum(axis=1)
            return 0.5 * float(np.abs(pu_ab - pu_ac).sum())

        coarse = marginal_tv(20)
        fine = marginal_tv(2000)
        assert fine < coarse
        assert fine < 0.05


def test_analysis_memory_scales_with_pairs_times_cells():
    # n = 4, L = 64, M = 2000: one M x (3n+12) x L float64 array is 24.6 MB,
    # while the M x (3n+12) arrays the sums need are 0.4 MB each
    uni = layers.build_universe(4, 64, 2000, np.random.default_rng(113))
    tracemalloc.start()
    try:
        analysis.dependence_report(uni, MU_AB, MU_AC)
        analysis.outcome_biases(uni, MU_AB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("pairs", [10_000, 20_000])
@pytest.mark.parametrize("interval_count", [2, 64])
def test_outcome_biases_peak_is_one_block_and_its_sums(interval_count, pairs):
    # n = 4, M = 1e4 and 2e4: one pass per side holds one reused
    # BLOCK_ROWS x S float block (S = 3n+12 positions), the positions of one
    # group of cells in it, and P, Q and the ratios of shape (2, S, L), at any
    # M; one M x S float array took 2.5 times the block at M = 1e4
    uni = layers.build_universe(4, interval_count, pairs, np.random.default_rng(127))
    size = uni.col_to.shape[1]
    block_bytes = layers.BLOCK_ROWS * size * 8
    sums_bytes = 2 * 2 * size * interval_count * 8
    tracemalloc.start()
    try:
        analysis.outcome_biases(uni, MU_AB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * block_bytes + 4 * sums_bytes


# axis, signed-zero and knot-aligned settings besides generic random ones
EDGE_SETTINGS = [
    [1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [-0.0, 0.0, 1.0],
    [0.6, -0.8, 0.0],
    [0.0, 0.28, 0.96],
]
settings_strategy = st.one_of(
    st.sampled_from(EDGE_SETTINGS),
    st.integers(0, 2**32 - 1).map(lambda s: random_unit_vector(np.random.default_rng(s))),
)


class TestLoopOracleEquivalence:
    """The vectorized analysis against the per-label loop definitions."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([4, 5, 8]),
        interval_count=st.one_of(st.integers(1, 3), st.just(64)),
        pairs=st.integers(1, 20),
        tie=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        a=settings_strategy,
        b=settings_strategy,
        c=settings_strategy,
    )
    def test_matches_loop(self, n, interval_count, pairs, tie, seed, a, b, c):
        uni = layers.build_universe(
            n, interval_count, pairs, np.random.default_rng(seed), tie_weights=tie
        )
        a, b, c = (measure.as_setting(v, normalize=True) for v in (a, b, c))
        mu_ab = measure.build_measure(a, b, n)
        mu_ac = measure.build_measure(a, c, n)
        assert analysis.pair_expectation(uni, mu_ab) == pytest.approx(
            loop_pair_expectation(uni, mu_ab), abs=1e-12
        )
        np.testing.assert_allclose(
            joint_table(uni, mu_ab), loop_station_pair_joint(uni, mu_ab),
            rtol=0, atol=1e-12,
        )
        for side, biases in analysis.outcome_biases(uni, mu_ab).items():
            for got, drop in zip(biases, (False, True)):
                want = loop_conditional_outcome_bias(uni, mu_ab, side, drop)
                assert got == pytest.approx(want, abs=1e-12), (side, drop)
        if np.array_equal(mu_ab.b, mu_ac.b):
            return
        got = analysis.dependence_report(uni, mu_ab, mu_ac)
        want = loop_dependence_report(uni, mu_ab, mu_ac)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-12), key

    @pytest.mark.parametrize("n", [82, 100])
    def test_flat_bins_past_uint16(self, n):
        # positions are uint16, and from n = 82 a flat (column, row) bin
        # column * S + row passes 2**16: formed in uint16 it would wrap, and
        # the joint and the per-interval laws would land in the wrong bins.
        # Pair 0 reverses the positions, so cell position 0, of mass
        # |a_3 b_3| > 0, sits in the last bin, (S - 1) * S + S - 1
        size = 3 * n + 12
        assert size * size - 1 >= 2**16
        rng = np.random.default_rng(n)
        drawn = layers.build_universe(n, 2, 3, rng)
        flip = np.arange(size)[::-1]
        uni = layers.LayerUniverse(
            n, 2, np.vstack([flip, drawn.col_to]), np.vstack([flip, drawn.row_to]),
            np.vstack([[0.25, 0.75], drawn.weights]),
        )
        assert uni.col_to.dtype == np.uint16
        a, b, c = (random_unit_vector(rng) for _ in range(3))
        mu_ab = measure.build_measure(a, b, n)
        mu_ac = measure.build_measure(a, c, n)
        np.testing.assert_allclose(
            joint_table(uni, mu_ab), loop_station_pair_joint(uni, mu_ab),
            rtol=0, atol=1e-12,
        )
        got = analysis.dependence_report(uni, mu_ab, mu_ac)
        want = loop_dependence_report(uni, mu_ab, mu_ac)
        assert got["factorization_defect"] == pytest.approx(
            want["factorization_defect"], abs=1e-12
        )
        assert got["tv_joint_vs_product"] == pytest.approx(want["tv_joint_vs_product"], abs=1e-12)
        for side, (_, witness) in analysis.outcome_biases(uni, mu_ab).items():
            want = loop_conditional_outcome_bias(uni, mu_ab, side, drop_companions=True)
            assert witness == pytest.approx(want, abs=1e-12), side


class TestOutcomeBiases:
    """One pass per side against the loop oracle."""

    @pytest.mark.parametrize("tie", [False, True])
    @pytest.mark.parametrize("pairs", [1, 2, 7])
    @pytest.mark.parametrize("interval_count", [1, 2, 3])
    def test_matches_loop(self, interval_count, pairs, tie):
        rng = np.random.default_rng(131 + 10 * interval_count + pairs)
        uni = layers.build_universe(4, interval_count, pairs, rng, tie_weights=tie)
        for a in EDGE_SETTINGS:
            for b in EDGE_SETTINGS:
                mu = measure.build_measure(a, b, 4)
                got = analysis.outcome_biases(uni, mu)
                assert list(got) == ["A", "B"]
                for side, (intact, witness) in got.items():
                    assert intact == 0.0
                    for value, drop in ((intact, False), (witness, True)):
                        want = loop_conditional_outcome_bias(uni, mu, side, drop)
                        assert value == pytest.approx(want, abs=1e-12), (a, b, side, drop)


class TestPositiveCellSums:
    """The sums over the positive-mass cells against the all-cells
    references, bit for bit: every share of a zero-mass cell is an exact
    zero, so dropping it changes no partial sum."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([4, 5, 17, 40]),
        interval_count=st.sampled_from([1, 2, 7, 64]),
        pairs=st.sampled_from([1, 37, 3000]),
        tie=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_all_cells_bit_for_bit(self, n, interval_count, pairs, tie, seed, data):
        a, b = data.draw(edge_pair(n))
        c = data.draw(edge_setting(n))
        uni = layers.build_universe(
            n, interval_count, pairs, np.random.default_rng(seed), tie_weights=tie
        )
        mu_ab = measure.build_measure(a, b, n)
        assert joint_table(uni, mu_ab).tobytes() == all_cells_table(uni, mu_ab).tobytes()
        for k, side in enumerate("AB"):
            got = analysis._outcome_mass(uni, mu_ab, k)
            want = all_cells_outcome_mass(uni, mu_ab, side)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), side
        got = analysis.outcome_biases(uni, mu_ab)
        want = all_cells_outcome_biases(uni, mu_ab)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
        mu_ac = measure.build_measure(a, c, n)
        if np.array_equal(mu_ab.b, mu_ac.b):
            return
        got = analysis.dependence_report(uni, mu_ab, mu_ac)
        want = all_cells_dependence_report(uni, mu_ab, mu_ac)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert np.float64(got[key]).tobytes() == np.float64(value).tobytes(), key
