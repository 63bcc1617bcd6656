import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import emission

from oracles import (
    brute_extreme_discrepancy,
    emission_times,
    interval_count,
    label_from_time,
    one_sided_discrepancies,
    whole_gate,
)

point_sets = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    min_size=1,
    max_size=64,
)


class TestGenerateTrace:
    def test_mean_waiting_time(self):
        theta = 2.5
        k = 1_000_000
        waits, _, _ = emission_times(theta, k, np.random.default_rng(3))
        assert abs(waits.mean() - theta) <= 3.29 * theta / np.sqrt(k)

    def test_cumulative_strictly_increasing(self):
        waits, times, _ = emission_times(1.0, 10_000, np.random.default_rng(5))
        assert np.all(np.diff(times) > 0.0)
        assert np.all(waits > 0.0)

    def test_fracs_in_unit_interval(self):
        trace = emission.generate_trace(0.7, 10_000, np.random.default_rng(7))
        _, times, _ = emission_times(0.7, 10_000, np.random.default_rng(7))
        assert np.all((trace.fracs >= 0.0) & (trace.fracs < 1.0))
        np.testing.assert_array_equal(trace.fracs, times - np.floor(times))

    def test_seed_replay(self):
        t1 = emission.generate_trace(1.0, 1000, np.random.default_rng(11))
        t2 = emission.generate_trace(1.0, 1000, np.random.default_rng(11))
        assert np.array_equal(t1.fracs, t2.fracs)

    @pytest.mark.parametrize(
        "theta,k", [(0.0, 10), (-1.0, 10), (np.nan, 10), (np.inf, 10), (1.0, 0)]
    )
    def test_domain_errors(self, theta, k):
        with pytest.raises(ValueError, match="theta" if k else "k"):
            emission.generate_trace(theta, k, np.random.default_rng(0))


class TestStarDiscrepancy:
    def test_single_point(self):
        assert emission.star_discrepancy([0.5]) == 0.5

    def test_centered_grid(self):
        k = 10
        pts = [(2 * i - 1) / (2 * k) for i in range(1, k + 1)]
        assert emission.star_discrepancy(pts) == pytest.approx(0.05, abs=1e-15)

    def test_two_points(self):
        assert emission.star_discrepancy([0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emission.star_discrepancy([])

    def test_points_outside_rejected(self):
        with pytest.raises(ValueError):
            emission.star_discrepancy([0.5, 1.0])

    def test_nan_point_rejected(self):
        for fn in (emission.star_discrepancy, emission.discrepancy_stats):
            with pytest.raises(ValueError, match="finite"):
                fn([0.5, np.nan])

    @given(point_sets)
    def test_star_bounds(self, pts):
        star = emission.star_discrepancy(pts)
        assert 1.0 / (2 * len(pts)) - 1e-15 <= star <= 1.0


class TestExtremeDiscrepancy:
    def test_single_point_is_one(self):
        # an arbitrarily short interval around the atom captures 1/k mass at
        # zero length, so the sup is 1 for a single point
        assert emission.discrepancy_stats([0.5]).extreme == 1.0
        assert brute_extreme_discrepancy([0.5]) == 1.0

    def test_two_points(self):
        extreme = emission.discrepancy_stats([0.25, 0.75]).extreme
        assert extreme == pytest.approx(0.5, abs=1e-15)
        assert brute_extreme_discrepancy([0.25, 0.75]) == pytest.approx(0.5, abs=1e-15)

    def test_equally_spaced(self):
        k = 10
        pts = [i / k for i in range(k)]
        extreme = emission.discrepancy_stats(pts).extreme
        oracle = brute_extreme_discrepancy(pts)
        assert extreme == pytest.approx(oracle, abs=1e-13)
        assert extreme == pytest.approx(0.1, abs=1e-13)

    @given(point_sets)
    def test_matches_brute_force(self, pts):
        extreme = emission.discrepancy_stats(pts).extreme
        assert extreme == pytest.approx(brute_extreme_discrepancy(pts), abs=1e-12)

    @given(point_sets)
    def test_star_extreme_bracket(self, pts):
        star = emission.star_discrepancy(pts)
        extreme = emission.discrepancy_stats(pts).extreme
        assert star - 1e-15 <= extreme <= 2.0 * star + 1e-15
        assert extreme <= 1.0 + 1e-15

    def test_exact_beyond_former_size_limit(self):
        # exact at every size: k = 20 000 was past the old 10 000-point cutoff
        trace = emission.generate_trace(1.0, 20_000, np.random.default_rng(13))
        stats = emission.discrepancy_stats(trace.fracs)
        assert stats.extreme == pytest.approx(brute_extreme_discrepancy(trace.fracs), abs=1e-12)
        assert stats.star == emission.star_discrepancy(trace.fracs)

    def test_poisson_set_against_oracle(self):
        trace = emission.generate_trace(1.0, 2000, np.random.default_rng(17))
        extreme = emission.discrepancy_stats(trace.fracs).extreme
        assert extreme == pytest.approx(brute_extreme_discrepancy(trace.fracs), abs=1e-12)


class TestDiscrepancyStats:
    def test_interval_count_matches_manual(self):
        rng = np.random.default_rng(19)
        pts = rng.random(1000)
        for _ in range(50):
            alpha, beta = sorted(rng.random(2))
            manual = int(np.sum((pts >= alpha) & (pts < beta)))
            assert interval_count(pts, alpha, beta) == manual


class TestLabels:
    def test_examples(self):
        assert label_from_time(3.14, 10) == 2
        assert label_from_time(7.0, 10) == 1
        assert label_from_time(0.999999, 10) == 10

    def test_deterministic_in_time(self):
        assert label_from_time(12.345, 50) == label_from_time(12.345, 50)

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False), st.integers(1, 1000))
    def test_label_in_range(self, x, n_labels):
        assert 1 <= label_from_time(x, n_labels) <= n_labels

    def test_trace_labels_match_scalar(self):
        trace = emission.generate_trace(1.0, 1000, np.random.default_rng(23))
        _, times, _ = emission_times(1.0, 1000, np.random.default_rng(23))
        vec = emission.labels_from_trace(trace, 37)
        scalar = [label_from_time(x, 37) for x in times]
        assert vec.tolist() == scalar

    def test_poisson_labels_uniform(self):
        trace = emission.generate_trace(1.0, 100_000, np.random.default_rng(29))
        labels = emission.labels_from_trace(trace, 100)
        counts = np.bincount(labels, minlength=101)[1:]
        stat, dof = emission.uniform_chi_square(counts)
        assert stat < emission.chi_square_quantile(0.999, dof)


class TestChiSquareQuantile:
    def test_bit_identical_to_scipy_stats(self):
        # scipy.stats is the oracle here; the library imports only scipy.special
        from scipy import stats

        dofs = np.concatenate([np.arange(1, 2001), [10**5, 10**6]])
        for level in (0.5, 0.99, 0.999):
            expected = stats.chi2.ppf(level, dofs)
            got = np.array([emission.chi_square_quantile(level, int(d)) for d in dofs])
            assert got.tobytes() == expected.tobytes(), level

    def test_edges(self):
        assert emission.chi_square_quantile(0.0, 3) == 0.0
        assert emission.chi_square_quantile(1.0, 3) == np.inf
        # one label leaves no degrees of freedom
        assert np.isnan(emission.chi_square_quantile(0.999, 0))


class TestRateFit:
    def test_poisson_slope(self):
        # D*_k along prefixes of one trace; the guarantee is k^(-1/2) up to logs
        ks = [1000, 10_000, 100_000]
        trace = emission.generate_trace(1.0, ks[-1], np.random.default_rng(31))
        fit = emission.fit_rate(ks, [emission.star_discrepancy(trace.fracs[:k]) for k in ks])
        assert fit.slope <= -0.4

    def test_uniform_control(self):
        rng = np.random.default_rng(37)
        ks = [1000, 10_000, 100_000]
        stars = [emission.star_discrepancy(rng.random(k)) for k in ks]
        fit = emission.fit_rate(ks, stars)
        assert -0.65 <= fit.slope <= -0.35

    def test_constant_control(self):
        ks = [1000, 10_000, 100_000]
        stars = [emission.star_discrepancy(np.full(k, 0.5)) for k in ks]
        fit = emission.fit_rate(ks, stars)
        assert abs(fit.slope) <= 0.05

    def test_validation(self):
        for ks, stars in (([], []), ([1000], [0.01]), ([1000, 1000], [0.01, 0.02]),
                          ([0, 1000], [0.5, 0.01]), ([10, 100], [0.1]),
                          ([10, 100], [0.1, 0.0])):
            with pytest.raises(ValueError):
                emission.fit_rate(ks, stars)


class TestDetectorGate:
    def test_full_readiness_keeps_everything(self):
        res = emission.detector_gate(1.0, 1.0, 20, 50_000, 1.0, np.random.default_rng(41))
        assert res.accepted == res.total
        np.testing.assert_array_equal(res.gated_counts, res.ungated_counts)

    def test_gated_labels_stay_uniform(self):
        res = emission.detector_gate(0.5, 0.5, 50, 1_000_000, 1.0, np.random.default_rng(43))
        stat, dof = emission.uniform_chi_square(res.gated_counts)
        assert stat < emission.chi_square_quantile(0.999, dof)

    def test_acceptance_rate(self):
        res = emission.detector_gate(0.9, 0.1, 10, 1_000_000, 1.0, np.random.default_rng(47))
        p = 0.09
        sigma = np.sqrt(p * (1 - p) / res.total)
        assert abs(res.acceptance_rate - p) <= 3.29 * sigma

    def test_gated_close_to_ungated_in_tv(self):
        res = emission.detector_gate(0.5, 0.5, 25, 400_000, 1.0, np.random.default_rng(53))
        gated = res.gated_counts / res.accepted
        ungated = res.ungated_counts / res.total
        tv = 0.5 * float(np.abs(gated - ungated).sum())
        # rough multinomial scale: 4 standard errors per cell aggregated
        scale = 4.0 * 25 * np.sqrt((1 / 25) * (1 - 1 / 25) / res.accepted)
        assert tv <= scale

    @pytest.mark.parametrize("p1,p2", [(0.0, 0.5), (1.5, 0.5), (0.5, -0.1)])
    def test_probability_validation(self, p1, p2):
        with pytest.raises(ValueError):
            emission.detector_gate(p1, p2, 10, 100, 1.0, np.random.default_rng(0))


CHUNK = emission.CHUNK
CHUNK_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]
THETAS = [1e-3, 0.37, 1.0, 250.0]


def _drawn(rng, doubles: int):
    """A copy of `rng` that has drawn `doubles` doubles."""
    stream = copy.deepcopy(rng)
    stream.random(doubles)
    return stream


class TestChunkedKernel:
    """The chunked kernel against the whole-array oracle, bit for bit, at
    sizes on and around the chunk length."""

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_fracs_are_the_whole_trace_parts(self, k, theta):
        trace = emission.generate_trace(theta, k, np.random.default_rng(61))
        _, _, fracs = emission_times(theta, k, np.random.default_rng(61))
        assert trace.fracs.tobytes() == fracs.tobytes()
        assert not trace.fracs.flags.writeable

    @pytest.mark.parametrize("labels", [7, 2 * CHUNK + 3])
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_gate_counts_are_the_whole_gate(self, k, theta, labels):
        res = emission.detector_gate(0.6, 0.8, labels, k, theta, np.random.default_rng(67))
        ungated, gated, accepted = whole_gate(0.6, 0.8, labels, k, theta, np.random.default_rng(67))
        assert res.ungated_counts.tobytes() == ungated.tobytes()
        assert res.gated_counts.tobytes() == gated.tobytes()
        assert (res.total, res.accepted) == (k, accepted)

    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_one_sided_parts_are_the_whole_array_ones(self, k):
        fracs = emission.generate_trace(1.0, k, np.random.default_rng(71)).fracs
        stats = emission.discrepancy_stats(fracs)
        d_plus, d_minus = one_sided_discrepancies(fracs)
        assert (stats.star, stats.extreme) == (max(d_plus, d_minus), d_plus + d_minus)

    @pytest.mark.parametrize("low, high", [(5, 3 * CHUNK), (3 * CHUNK + 2, 7)])
    def test_one_sided_maxima_in_any_chunk(self, low, high):
        # the centred grid has D+ = D- = 1/(2k) at every point; moving point
        # `low` down raises D+ there alone, and point `high` up raises D-
        k = 3 * CHUNK + 17
        pts = (np.arange(k) + 0.5) / k
        pts[low] -= 0.3 / k
        pts[high] += 0.2 / k
        stats = emission.discrepancy_stats(pts)
        d_plus, d_minus = one_sided_discrepancies(pts)
        assert d_plus == pytest.approx(0.8 / k) and d_minus == pytest.approx(0.7 / k)
        assert (stats.star, stats.extreme) == (d_plus, d_plus + d_minus)


class TestStreamPosition:
    """Each call moves the caller's stream past exactly what it drew: k
    doubles for a trace, 3k for a gate (emissions, p1 draws, p2 draws)."""

    @pytest.mark.parametrize("k", [1, CHUNK + 1])
    def test_trace_moves_the_stream_k_doubles(self, k):
        rng = np.random.default_rng(73)
        expected = _drawn(rng, k)
        emission.generate_trace(0.5, k, rng)
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("k", [1, CHUNK + 1])
    def test_gate_moves_the_stream_3k_doubles(self, k):
        rng = np.random.default_rng(79)
        expected = _drawn(rng, 3 * k)
        emission.detector_gate(0.5, 0.5, 5, k, 0.5, rng)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_gates_in_a_row_follow_the_stream(self):
        rng, oracle_rng = np.random.default_rng(83), np.random.default_rng(83)
        for k in (CHUNK + 5, 1000):
            res = emission.detector_gate(0.7, 0.9, 11, k, 1.3, rng)
            ungated, gated, accepted = whole_gate(0.7, 0.9, 11, k, 1.3, oracle_rng)
            assert res.ungated_counts.tolist() == ungated.tolist()
            assert res.gated_counts.tolist() == gated.tolist()
            assert res.accepted == accepted

    @pytest.mark.parametrize(
        "p1,p2,labels,k,theta,message",
        [
            (0.0, 0.5, 5, 100, 1.0, "p1"),
            (0.5, 1.5, 5, 100, 1.0, "p2"),
            (0.5, 0.5, 0, 100, 1.0, "label count"),
            (0.5, 0.5, 5, 100, np.nan, "theta"),
            (0.5, 0.5, 5, 100, 0.0, "theta"),
            (0.5, 0.5, 5, 0, 1.0, "k"),
        ],
    )
    def test_rejected_gate_draws_nothing(self, p1, p2, labels, k, theta, message):
        rng = np.random.default_rng(89)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            emission.detector_gate(p1, p2, labels, k, theta, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("theta,k", [(np.inf, 10), (-1.0, 10), (1.0, 0)])
    def test_rejected_trace_draws_nothing(self, theta, k):
        rng = np.random.default_rng(97)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            emission.generate_trace(theta, k, rng)
        assert rng.bit_generator.state == before


class TestOverflow:
    # at 1.5e303 the first chunk's times stay below the largest float64
    # (about 9.8e307 at its end) and the second chunk's pass it
    @pytest.mark.parametrize("theta,k", [(1e308, 1000), (1.5e303, 2 * CHUNK)])
    def test_overflow_raises_without_a_warning(self, theta, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float64"):
                emission.generate_trace(theta, k, np.random.default_rng(101))
            with pytest.raises(OverflowError, match="float64"):
                emission.detector_gate(1.0, 1.0, 3, k, theta, np.random.default_rng(101))

    def test_huge_finite_times_are_kept(self):
        # times near 1e304 are finite: every fractional part is 0
        trace = emission.generate_trace(1e300, 1000, np.random.default_rng(103))
        assert not trace.fracs.any()


@settings(deadline=None)
@given(st.integers(2, 200))
def test_centered_grid_is_optimal(k):
    pts = [(2 * i - 1) / (2 * k) for i in range(1, k + 1)]
    assert emission.star_discrepancy(pts) == pytest.approx(1.0 / (2 * k), abs=1e-15)
    assert emission.discrepancy_stats(pts).extreme == pytest.approx(1.0 / k, abs=1e-14)
