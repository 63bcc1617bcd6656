import copy
import math
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import config, emission

from oracles import (
    brute_extreme_discrepancy,
    emission_times,
    gate_readiness,
    gated_label_counts,
    interval_count,
    label_from_time,
    one_sided_discrepancies,
    point_labels,
)


def _whole(points):
    """The library's star and extreme discrepancies (D*, D) of a point set,
    from a sorted copy."""
    pts = np.array(points, dtype=float)
    stars, extreme, _ = emission.prefix_discrepancies(pts, [pts.size])
    return stars[0], extreme


def _oracle_stats(points):
    """(D*, D) from the whole-array one-sided parts."""
    d_plus, d_minus = one_sided_discrepancies(points)
    return max(d_plus, d_minus), d_plus + d_minus


def _label_counts(fracs, labels):
    """The library's label counts of a trace, read off its sorted copy."""
    return emission.prefix_discrepancies(np.array(fracs), [], labels)[2]


def _gate(p1, p2, labels, k, theta, rng):
    """The library's trace of k emissions, its label counts, then its gated
    counts on the same stream."""
    counts = _label_counts(emission.generate_trace(theta, k, rng), labels)
    return counts, emission.detector_gate(p1, p2, counts, rng)


def _oracle_gate(p1, p2, labels, k, theta, rng):
    """`_gate` by the oracles: the labels of the whole trace point by point,
    then each emission's readiness lane by lane."""
    _, _, fracs = emission_times(theta, k, rng)
    counts = np.bincount(point_labels(fracs, labels), minlength=labels)
    ready = gate_readiness(p1, p2, k, rng)
    return counts, gated_label_counts(counts, ready), int(ready.sum())


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
        fracs = emission.generate_trace(0.7, 10_000, np.random.default_rng(7))
        _, times, _ = emission_times(0.7, 10_000, np.random.default_rng(7))
        assert np.all((fracs >= 0.0) & (fracs < 1.0))
        np.testing.assert_array_equal(fracs, times - np.floor(times))

    def test_seed_replay(self):
        t1 = emission.generate_trace(1.0, 1000, np.random.default_rng(11))
        t2 = emission.generate_trace(1.0, 1000, np.random.default_rng(11))
        assert np.array_equal(t1, t2)

    @pytest.mark.parametrize(
        "theta,k", [(0.0, 10), (-1.0, 10), (np.nan, 10), (np.inf, 10), (1.0, 0)]
    )
    def test_domain_errors(self, theta, k):
        with pytest.raises(ValueError, match="theta" if k else "k"):
            emission.generate_trace(theta, k, np.random.default_rng(0))


class TestStarDiscrepancy:
    def test_single_point(self):
        assert _whole([0.5])[0] == 0.5

    def test_centered_grid(self):
        k = 10
        pts = [(2 * i - 1) / (2 * k) for i in range(1, k + 1)]
        assert _whole(pts)[0] == pytest.approx(0.05, abs=1e-15)

    def test_two_points(self):
        assert _whole([0.25, 0.75])[0] == pytest.approx(0.25, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            emission.prefix_discrepancies(np.array([]), [])

    def test_points_outside_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            emission.prefix_discrepancies(np.array([0.5, 1.0]), [])

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            emission.prefix_discrepancies(np.array([0.5, np.nan]), [])

    @given(point_sets)
    def test_star_bounds(self, pts):
        star = _whole(pts)[0]
        assert star == max(one_sided_discrepancies(pts))
        assert 1.0 / (2 * len(pts)) - 1e-15 <= star <= 1.0


class TestExtremeDiscrepancy:
    def test_single_point_is_one(self):
        # an arbitrarily short interval around the atom captures 1/k mass at
        # zero length, so the sup is 1 for a single point
        assert _whole([0.5])[1] == 1.0
        assert brute_extreme_discrepancy([0.5]) == 1.0

    def test_two_points(self):
        extreme = _whole([0.25, 0.75])[1]
        assert extreme == pytest.approx(0.5, abs=1e-15)
        assert brute_extreme_discrepancy([0.25, 0.75]) == pytest.approx(0.5, abs=1e-15)

    def test_equally_spaced(self):
        k = 10
        pts = [i / k for i in range(k)]
        extreme = _whole(pts)[1]
        oracle = brute_extreme_discrepancy(pts)
        assert extreme == pytest.approx(oracle, abs=1e-13)
        assert extreme == pytest.approx(0.1, abs=1e-13)

    @given(point_sets)
    def test_matches_brute_force(self, pts):
        extreme = _whole(pts)[1]
        assert extreme == pytest.approx(brute_extreme_discrepancy(pts), abs=1e-12)

    @given(point_sets)
    def test_star_extreme_bracket(self, pts):
        star, extreme = _whole(pts)
        assert star - 1e-15 <= extreme <= 2.0 * star + 1e-15
        assert extreme <= 1.0 + 1e-15

    def test_exact_beyond_former_size_limit(self):
        # exact at every size: k = 20 000 was past the old 10 000-point cutoff
        fracs = emission.generate_trace(1.0, 20_000, np.random.default_rng(13))
        star, extreme = _whole(fracs)
        assert extreme == pytest.approx(brute_extreme_discrepancy(fracs), abs=1e-12)
        assert star == max(one_sided_discrepancies(fracs))

    def test_poisson_set_against_oracle(self):
        fracs = emission.generate_trace(1.0, 2000, np.random.default_rng(17))
        extreme = _whole(fracs)[1]
        assert extreme == pytest.approx(brute_extreme_discrepancy(fracs), abs=1e-12)


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
        # the label counts of the trace's own parts are the scalar labels of
        # the same emission times
        counts, _ = _gate(1.0, 1.0, 37, 1000, 1.0, np.random.default_rng(23))
        _, times, _ = emission_times(1.0, 1000, np.random.default_rng(23))
        scalar = np.bincount([label_from_time(x, 37) for x in times], minlength=38)[1:]
        assert counts.tolist() == scalar.tolist()

    def test_poisson_labels_uniform(self):
        counts, _ = _gate(1.0, 1.0, 100, 100_000, 1.0, np.random.default_rng(29))
        stat, dof = emission.uniform_chi_square(counts)
        assert stat < emission.chi_square_quantile(0.999, dof)


# label counts near the labels cap build a 128 MiB count array, so there
# only the edges of the sampled labels are checked
LABEL_COUNTS = [2, 3, 49, 50, 2**20, 10**6 + 3]


class TestLabelEdges:
    """Label counts read off the sorted points at the edges t_j, against the
    per-point label min(floor(x * N), N - 1)."""

    @settings(deadline=None, max_examples=25)
    @pytest.mark.parametrize("labels", LABEL_COUNTS)
    @given(data=st.data())
    def test_counts_at_the_edges(self, labels, data):
        js = data.draw(st.lists(st.integers(1, labels - 1), min_size=1, max_size=8))
        extra = data.draw(point_sets)
        edges = emission._label_edges(np.array(js, dtype=float), labels)
        points = np.concatenate(
            [edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0)], extra]
        )
        counts = _label_counts(points, labels)
        assert counts.tolist() == np.bincount(point_labels(points, labels), minlength=labels).tolist()

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, config.MAXIMUMS["labels"] - 1))
    def test_edges_at_the_labels_cap(self, j):
        labels = config.MAXIMUMS["labels"]
        edge = emission._label_edges(np.array([float(j)]), labels)
        below = np.nextafter(edge, 0.0)
        assert point_labels(edge, labels).tolist() == [j]
        assert point_labels(below, labels).tolist() == [j - 1]

    @pytest.mark.parametrize("labels", [2, 7, 2 * emission.CHUNK + 3])
    def test_counts_span_edge_blocks(self, labels):
        # the edges are searched CHUNK at a time
        k = 3 * emission.CHUNK + 17
        fracs = emission.generate_trace(0.37, k, np.random.default_rng(24))
        expected = np.bincount(point_labels(fracs, labels), minlength=labels)
        assert _label_counts(fracs, labels).tolist() == expected.tolist()


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
        fracs = emission.generate_trace(1.0, ks[-1], np.random.default_rng(31))
        slope = emission.fit_rate(ks, emission.prefix_discrepancies(fracs, ks)[0])
        assert type(slope) is float
        assert slope <= -0.4

    def test_uniform_control(self):
        rng = np.random.default_rng(37)
        ks = [1000, 10_000, 100_000]
        stars = [max(one_sided_discrepancies(rng.random(k))) for k in ks]
        assert -0.65 <= emission.fit_rate(ks, stars) <= -0.35

    def test_constant_control(self):
        ks = [1000, 10_000, 100_000]
        stars = [max(one_sided_discrepancies(np.full(k, 0.5))) for k in ks]
        assert abs(emission.fit_rate(ks, stars)) <= 0.05

    def test_validation(self):
        for ks, stars in (([], []), ([1000], [0.01]), ([1000, 1000], [0.01, 0.02]),
                          ([0, 1000], [0.5, 0.01]), ([10, 100], [0.1]),
                          ([10, 100], [0.1, 0.0])):
            with pytest.raises(ValueError):
                emission.fit_rate(ks, stars)


class TestDetectorGate:
    def test_full_readiness_keeps_everything(self):
        counts, gated = _gate(1.0, 1.0, 20, 50_000, 1.0, np.random.default_rng(41))
        np.testing.assert_array_equal(gated, counts)

    def test_gated_labels_stay_uniform(self):
        _, gated = _gate(0.5, 0.5, 50, 1_000_000, 1.0, np.random.default_rng(43))
        stat, dof = emission.uniform_chi_square(gated)
        assert stat < emission.chi_square_quantile(0.999, dof)

    @pytest.mark.parametrize("p1, p2", [(0.9, 0.1), (0.3, 0.7), (2**-7, 1.0)])
    def test_acceptance_rate(self, p1, p2):
        k = 1_000_000
        _, gated = _gate(p1, p2, 10, k, 1.0, np.random.default_rng(47))
        p = p1 * p2
        sigma = np.sqrt(p * (1 - p) / k)
        assert abs(int(gated.sum()) / k - p) <= 3.29 * sigma

    def test_gated_close_to_ungated_in_tv(self):
        k = 400_000
        counts, gated = _gate(0.5, 0.5, 25, k, 1.0, np.random.default_rng(53))
        accepted = int(gated.sum())
        tv = 0.5 * float(np.abs(gated / accepted - counts / k).sum())
        # rough multinomial scale: 4 standard errors per cell aggregated
        scale = 4.0 * 25 * np.sqrt((1 / 25) * (1 - 1 / 25) / accepted)
        assert tv <= scale

    @pytest.mark.parametrize("p1,p2", [(0.0, 0.5), (1.5, 0.5), (0.5, -0.1), (np.nan, 0.5)])
    def test_probability_validation(self, p1, p2):
        with pytest.raises(ValueError):
            emission.detector_gate(p1, p2, [50, 50], np.random.default_rng(0))


CHUNK = emission.CHUNK
CHUNK_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]
THETAS = [1e-3, 0.37, 1.0, 250.0]
# p = 1 puts the lane bound 2**16 past every lane, p < 2**-16 puts it at 0,
# and 0.3 and nextafter(1, 0) leave lanes at the bound to a refinement word
READINESS = [1.0, 0.5, 0.3, 2.0**-20, float(np.nextafter(1.0, 0.0))]


def _drawn(rng, doubles: int):
    """A copy of `rng` that has drawn `doubles` doubles."""
    stream = copy.deepcopy(rng)
    stream.random(doubles)
    return stream


class _WordStream:
    """A bit generator's stand-in that hands out `words` in order, so the
    gate's lanes can be put at a station's bound on purpose."""

    def __init__(self, words):
        self.words, self.at = np.asarray(words, dtype=np.uint64), 0

    def random_raw(self, size):
        self.at += size
        return self.words[self.at - size : self.at].copy()

    def advance(self, delta):
        self.at += delta


def _word_stream(p1, p2, k, seed):
    """Raw words whose lanes sit at the stations' bounds c >> 37 about half
    the time, then random words for the refinements."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, size=2 * k + 8, dtype=np.uint64)
    lanes = words[: -(-k // 2)].view("<u2").reshape(-1, 2)
    for s, p in enumerate((p1, p2)):
        bound = min(math.ceil(p * 2**53) >> 37, 0xFFFF)
        lanes[rng.random(lanes.shape[0]) < 0.5, s] = bound
    return types.SimpleNamespace(bit_generator=_WordStream(words))


class TestChunkedKernel:
    """The chunked kernel against the whole-array oracle, bit for bit, at
    sizes on and around the chunk length."""

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_fracs_are_the_whole_trace_parts(self, k, theta):
        got = emission.generate_trace(theta, k, np.random.default_rng(61))
        _, _, fracs = emission_times(theta, k, np.random.default_rng(61))
        assert got.tobytes() == fracs.tobytes()
        # the caller's own array, which `poisson` sorts in place
        assert got.flags.writeable and got.flags.owndata

    @pytest.mark.parametrize("labels", [7, 2 * CHUNK + 3])
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_gate_counts_are_the_whole_gate(self, k, theta, labels):
        counts, gated = _gate(0.6, 0.8, labels, k, theta, np.random.default_rng(67))
        ungated, want, accepted = _oracle_gate(
            0.6, 0.8, labels, k, theta, np.random.default_rng(67)
        )
        assert counts.tobytes() == ungated.tobytes()
        assert gated.tobytes() == want.tobytes()
        assert (int(counts.sum()), int(gated.sum())) == (k, accepted)

    # the gate's chunk is CHUNK emissions, at label counts on both sides of it
    @pytest.mark.parametrize("labels", [2, 7, CHUNK + 3])
    @pytest.mark.parametrize("k", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
    def test_gate_counts_around_its_own_chunk(self, k, labels):
        counts, gated = _gate(0.3, 0.7, labels, k, 0.37, np.random.default_rng(68))
        ungated, want, accepted = _oracle_gate(
            0.3, 0.7, labels, k, 0.37, np.random.default_rng(68)
        )
        assert counts.tobytes() == ungated.tobytes()
        assert gated.tobytes() == want.tobytes()
        assert (int(counts.sum()), int(gated.sum())) == (k, accepted)
        assert not gated.flags.writeable

    @pytest.mark.parametrize("p1", READINESS)
    @pytest.mark.parametrize("p2", READINESS)
    @pytest.mark.parametrize("k", [1, 7, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_gate_is_the_readiness_oracle(self, p1, p2, k):
        counts = np.random.default_rng(k).multinomial(k, [0.25, 0.0, 0.5, 0.25])
        rng, oracle_rng = np.random.default_rng(70), np.random.default_rng(70)
        gated = emission.detector_gate(p1, p2, counts, rng)
        ready = gate_readiness(p1, p2, k, oracle_rng)
        assert gated.tolist() == gated_label_counts(counts, ready).tolist()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("p1", READINESS)
    @pytest.mark.parametrize("p2", READINESS)
    @pytest.mark.parametrize("k", [7, 2 * CHUNK + 1])
    def test_lanes_at_the_bound_follow_the_oracle(self, p1, p2, k):
        # half the lanes sit at their station's bound, so refinement words are
        # drawn in every chunk, in lane order across both stations
        counts = np.array([k // 3, 0, k - k // 3])
        stream, oracle_stream = _word_stream(p1, p2, k, 71), _word_stream(p1, p2, k, 71)
        gated = emission.detector_gate(p1, p2, counts, stream)
        ready = gate_readiness(p1, p2, k, oracle_stream)
        assert gated.tolist() == gated_label_counts(counts, ready).tolist()
        assert stream.bit_generator.at == oracle_stream.bit_generator.at

    def test_gate_buffers_stay_under_one_mib(self):
        # the gate runs beside a held trace in `poisson`: its chunk buffers,
        # not k-length arrays, set its peak, within 18 bytes per CHUNK
        # emission, near the scan's two one-chunk buffers
        rng = np.random.default_rng(69)
        counts = np.full(50, 20_000)
        tracemalloc.start()
        try:
            emission.detector_gate(0.3, 0.5, counts, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert peak <= 18 * CHUNK, peak

    def test_prefix_scan_holds_one_chunk_grid(self):
        # beside the trace it sorts, the prefix function holds the scan's
        # index and difference buffers of CHUNK floats each, and little more
        fracs = emission.generate_trace(1.0, 1_000_000, np.random.default_rng(70))
        tracemalloc.start()
        try:
            emission.prefix_discrepancies(fracs, [1000, 10_000, 100_000, 1_000_000], 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * CHUNK + 2**16, peak

    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_one_sided_parts_are_the_whole_array_ones(self, k):
        fracs = emission.generate_trace(1.0, k, np.random.default_rng(71))
        assert _whole(fracs) == _oracle_stats(fracs)

    @pytest.mark.parametrize("low, high", [(5, 3 * CHUNK), (3 * CHUNK + 2, 7)])
    def test_one_sided_maxima_in_any_chunk(self, low, high):
        # the centred grid has D+ = D- = 1/(2k) at every point; moving point
        # `low` down raises D+ there alone, and point `high` up raises D-
        k = 3 * CHUNK + 17
        pts = (np.arange(k) + 0.5) / k
        pts[low] -= 0.3 / k
        pts[high] += 0.2 / k
        d_plus, d_minus = one_sided_discrepancies(pts)
        assert d_plus == pytest.approx(0.8 / k) and d_minus == pytest.approx(0.7 / k)
        assert _whole(pts) == (d_plus, d_plus + d_minus)

    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_stats_alike_on_sorted_and_shuffled_points(self, k):
        # the shuffled trace is sorted in place, then read again as sorted input
        fracs = emission.generate_trace(1.0, k, np.random.default_rng(72))
        expected = np.sort(fracs)
        shuffled = emission.prefix_discrepancies(fracs, [k])[:2]
        assert fracs.tobytes() == expected.tobytes()
        assert repr(emission.prefix_discrepancies(fracs, [k])[:2]) == repr(shuffled)


class TestPrefixDiscrepancies:
    @pytest.mark.parametrize("k", CHUNK_SIZES)
    def test_each_prefix_is_its_star_discrepancy(self, k):
        fracs = emission.generate_trace(0.37, k, np.random.default_rng(74))
        ks = sorted({size for size in (1, 10, 1000, CHUNK, k) if size <= k})
        expected = [max(one_sided_discrepancies(fracs[:size])) for size in ks]
        _, whole_extreme = _oracle_stats(fracs)
        labels = point_labels(fracs, 3)
        stars, extreme, counts = emission.prefix_discrepancies(fracs, ks, 3)
        assert (stars, extreme) == (expected, whole_extreme)
        assert counts.tolist() == np.bincount(labels, minlength=3).tolist()
        # the caller's trace is sorted in place
        assert not np.any(fracs[1:] < fracs[:-1])

    @pytest.mark.parametrize(
        "points, ks, labels, message",
        [
            ([], [], 2, "nonempty"),
            ([0.5, np.nan], [], 2, "finite"),
            ([0.5, 1.0], [], 2, "finite"),
            ([0.5, 0.25], [0], 2, "prefix sizes"),
            ([0.5, 0.25], [1, 1], 2, "prefix sizes"),
            ([0.5, 0.25], [2, 1], 2, "prefix sizes"),
            ([0.5, 0.25], [3], 2, "prefix sizes"),
            ([0.5, 0.25], [1], 0, "label count"),
        ],
    )
    def test_rejected_input_is_left_unsorted(self, points, ks, labels, message):
        fracs = np.array(points)
        before = fracs.tobytes()
        with pytest.raises(ValueError, match=message):
            emission.prefix_discrepancies(fracs, ks, labels)
        assert fracs.tobytes() == before


class TestStreamPosition:
    """Each call moves the caller's stream past exactly what it drew: k
    doubles for a trace; for a gate of k emissions, ceil(k / 2) lane words
    and one refinement word per lane at its station's bound."""

    @pytest.mark.parametrize("k", [1, CHUNK + 1])
    def test_trace_moves_the_stream_k_doubles(self, k):
        rng = np.random.default_rng(73)
        expected = _drawn(rng, k)
        emission.generate_trace(0.5, k, rng)
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("k", [1, 2, CHUNK + 1])
    def test_gate_at_one_half_moves_the_stream_its_lane_words(self, k):
        # c = 2**52 is a multiple of 2**37, so no lane takes a refinement word
        rng = np.random.default_rng(79)
        expected = copy.deepcopy(rng)
        expected.bit_generator.random_raw(-(-k // 2))
        emission.detector_gate(0.5, 0.5, [k], rng)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_gates_in_a_row_follow_the_stream(self):
        rng, oracle_rng = np.random.default_rng(83), np.random.default_rng(83)
        for k in (CHUNK + 5, 1000):
            counts, gated = _gate(0.7, 0.9, 11, k, 1.3, rng)
            ungated, want, accepted = _oracle_gate(0.7, 0.9, 11, k, 1.3, oracle_rng)
            assert counts.tolist() == ungated.tolist()
            assert gated.tolist() == want.tolist()
            assert int(gated.sum()) == accepted
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize(
        "p1,p2,counts,message",
        [
            (0.0, 0.5, [5, 5], "p1"),
            (0.5, 1.5, [5, 5], "p2"),
            (0.5, 0.5, [], "nonempty"),
            (0.5, 0.5, [[5, 5]], "1-d"),
            (0.5, 0.5, [0.5, 1.5], "integers"),
            (0.5, 0.5, [5, -1, 5], ">= 0"),
            (0.5, 0.5, [0, 0], "at least one emission"),
        ],
    )
    def test_rejected_gate_draws_nothing(self, p1, p2, counts, message):
        rng = np.random.default_rng(89)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            emission.detector_gate(p1, p2, counts, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox])
    def test_gate_refuses_a_bit_generator_not_advancing_by_words(self, bit_generator):
        # MT19937 and SFC64 cannot advance; Philox advances by 4-word blocks,
        # so its refinement words would not be the words after the lane words
        rng = np.random.Generator(bit_generator(89))
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=bit_generator.__name__):
            emission.detector_gate(0.5, 0.5, [50, 50], rng)
        np.testing.assert_equal(rng.bit_generator.state, before)

    def test_gate_on_pcg64dxsm_follows_its_stream(self):
        rng, oracle_rng = (np.random.Generator(np.random.PCG64DXSM(91)) for _ in range(2))
        counts, gated = _gate(0.7, 0.9, 11, CHUNK + 5, 1.3, rng)
        ungated, want, accepted = _oracle_gate(0.7, 0.9, 11, CHUNK + 5, 1.3, oracle_rng)
        assert counts.tolist() == ungated.tolist()
        assert gated.tolist() == want.tolist()
        assert int(gated.sum()) == accepted
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("theta,k", [(np.inf, 10), (-1.0, 10), (1.0, 0)])
    def test_rejected_trace_draws_nothing(self, theta, k):
        rng = np.random.default_rng(97)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            emission.generate_trace(theta, k, rng)
        assert rng.bit_generator.state == before


# a mean wait at which the first chunk's times end near 2/3 of the largest
# float64 and the second chunk's pass it
CHUNK_OVERFLOW_THETA = sys.float_info.max / (1.5 * CHUNK)


class TestOverflow:
    @pytest.mark.parametrize("theta,k", [(1e308, 1000), (CHUNK_OVERFLOW_THETA, 2 * CHUNK)])
    def test_overflow_raises_without_a_warning(self, theta, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float64"):
                emission.generate_trace(theta, k, np.random.default_rng(101))

    def test_the_first_chunk_of_the_overflowing_trace_stays_finite(self):
        # so the overflow above is found in the second chunk, past a carried time
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emission.generate_trace(CHUNK_OVERFLOW_THETA, CHUNK, np.random.default_rng(101))

    def test_huge_finite_times_are_kept(self):
        # times near 1e304 are finite: every fractional part is 0
        fracs = emission.generate_trace(1e300, 1000, np.random.default_rng(103))
        assert not fracs.any()


@settings(deadline=None)
@given(st.integers(2, 200))
def test_centered_grid_is_optimal(k):
    pts = [(2 * i - 1) / (2 * k) for i in range(1, k + 1)]
    star, extreme = _whole(pts)
    assert star == pytest.approx(1.0 / (2 * k), abs=1e-15)
    assert extreme == pytest.approx(1.0 / k, abs=1e-14)
