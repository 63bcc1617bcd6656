import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eprsim import analysis, layers, measure, splines

from oracles import (
    column_weight,
    density,
    detector_a,
    diagonal_indicator,
    domain_high,
    gap_variant_cell_mass,
    naive_cell_index,
    naive_cell_mass,
    naive_total_mass,
    random_unit_vector,
    row_weight,
    step_sign,
    step_weight,
)
from strategies import edge_cases

E1 = (1.0, 0.0, 0.0)
E2 = (0.0, 1.0, 0.0)
E3 = (0.0, 0.0, 1.0)


@st.composite
def unit_settings(draw):
    raw = [draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)) for _ in range(3)]
    vec = np.asarray(raw)
    norm = np.linalg.norm(vec)
    if norm < 0.1:
        vec = np.array([1.0, 0.0, 0.0])
        norm = 1.0
    return vec / norm


class TestSettingValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            measure.as_setting([1.0, 1.0, 0.0])

    def test_normalize_flag(self):
        out = measure.as_setting([2.0, 0.0, 0.0], normalize=True)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=0)

    def test_result_is_unit(self):
        out = measure.as_setting([0.6, 0.8, 0.0])
        assert abs(np.dot(out, out) - 1.0) <= 1e-12

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            measure.as_setting([1.0, 0.0])

    # the squared norm of each overflows, underflows to a subnormal, or
    # underflows to 0 when formed as it stands
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "v, unit",
        [
            ([1e200, 0.0, 0.0], [1.0, 0.0, 0.0]),
            ([3e-162, 4e-162, 0.0], [0.6, 0.8, 0.0]),
            ([1e-320, 0.0, 0.0], [1.0, 0.0, 0.0]),
            ([1e308, -1e308, 0.0], [math.sqrt(0.5), -math.sqrt(0.5), 0.0]),
        ],
    )
    def test_normalize_at_the_ends_of_the_double_range(self, v, unit):
        np.testing.assert_allclose(measure.as_setting(v, normalize=True), unit, rtol=0, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("v", [[1e200, 0.0, 0.0], [1e-320, 0.0, 0.0], [1e308] * 3])
    def test_far_from_unit_is_refused_without_normalize(self, v):
        with pytest.raises(ValueError, match="deviates from 1"):
            measure.as_setting(v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
    def test_normalize_any_finite_triple(self, v):
        if not any(v):
            with pytest.raises(ValueError, match="nonzero"):
                measure.as_setting(v, normalize=True)
            return
        out = measure.as_setting(v, normalize=True)
        assert abs(math.hypot(*out) - 1.0) <= measure.SETTING_NORM_TOL
        # same direction, in exact arithmetic: out x v vanishes relative to
        # the largest |v_k|, and out . v > 0
        x, y = [Fraction(c) for c in out], [Fraction(c) for c in v]
        scale = max(abs(c) for c in y)
        cross = [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
        assert all(abs(c) <= Fraction(1, 10**12) * scale for c in cross)
        assert sum(a * b for a, b in zip(x, y)) > 0

    @given(
        st.lists(st.floats(-1e100, 1e100), min_size=3, max_size=3).filter(
            lambda v: max(map(abs, v)) >= 1e-100
        )
    )
    def test_normalize_keeps_the_plain_quotient_in_range(self, v):
        # where numpy forms the norm without overflow or underflow, the unit
        # setting is the input divided by it, to the bit
        arr = np.array(v)
        out = measure.as_setting(v, normalize=True)
        assert out.tobytes() == (arr / np.linalg.norm(arr)).tobytes()

    # every finite nonzero triple: hypothesis's floats reach the ends of the
    # double range, subnormals and -0.0; the scaled ones spread the exponents
    @settings(deadline=None, max_examples=500)
    @example(v=[1e308, 1e308, 0.0])
    @example(v=[5e-324, -0.0, 0.0])
    @example(v=[1.0, 2.0, 2.0])
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
            ),
            min_size=3,
            max_size=3,
        ).filter(any)
    )
    def test_an_output_is_kept_as_it_is(self, v):
        # the bound the keep rule tests holds for every output, so a setting
        # validated once keeps its bits through every later `as_setting`
        out = measure.as_setting(v, normalize=True)
        assert abs(math.hypot(*out) - 1.0) <= measure.UNIT_NORM_TOL
        assert measure.as_setting(out) is out
        assert measure.as_setting(out, normalize=True) is out

    @settings(deadline=None, max_examples=300)
    @given(unit_settings(), st.floats(-1e-10, 1e-10))
    def test_a_near_unit_output_is_kept_as_it_is(self, v, eps):
        out = measure.as_setting(v * (1.0 + eps))
        assert abs(math.hypot(*out) - 1.0) <= measure.UNIT_NORM_TOL
        assert measure.as_setting(out) is out

    def test_only_a_read_only_unit_float64_triple_is_kept(self):
        out = measure.as_setting([0.6, 0.8, 0.0])
        # a writeable copy, a list, a float32 view: validated and divided anew
        for v in (out.copy(), out.tolist(), out.astype(np.float32)):
            got = measure.as_setting(v, normalize=True)
            assert got is not v and not got.flags.writeable
        # a read-only triple within 1e-9 but past UNIT_NORM_TOL of unit norm
        near = np.array([0.6, 0.8, 1e-7])
        near.setflags(write=False)
        got = measure.as_setting(near)
        assert got is not near and got.tobytes() == (near / np.linalg.norm(near)).tobytes()
        for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 1.0, 0.0]):
            bad = np.array(bad)
            bad.setflags(write=False)
            with pytest.raises(ValueError):
                measure.as_setting(bad)


class TestWeightValidation:
    def test_accepts_probability_vector(self):
        out = measure.validate_weights([0.1, 0.2, 0.3, 0.4])
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            measure.validate_weights([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            measure.validate_weights([1.5, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_rejects_non_finite_or_negative_in_any_row(self, bad):
        weights = np.full((3, 2), 0.5)
        weights[2, 1] = bad
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            measure.validate_weights(weights)

    def test_accepts_negative_zero(self):
        out = measure.validate_weights([[-0.0, 1.0], [1.0, -0.0]])
        assert np.signbit(out).tolist() == [[True, False], [False, True]]

    def test_empty_rows_pass_through(self):
        # no pair has a weight to check; callers refuse zero rows themselves
        out = measure.validate_weights(np.empty((0, 3)))
        assert out.shape == (0, 3) and not out.flags.writeable


class TestDetectors:
    def test_negative_strips(self):
        assert detector_a(E1, -0.5) == 1.0
        # zero component uses sign(0) = +1
        assert detector_a(E3, -2.5) == 1.0
        assert detector_a(E3, -1.5) == 1.0

    def test_half_cell_alternation(self):
        assert detector_a(E1, 0.25) == -1.0
        assert detector_a(E1, 0.75) == 1.0
        assert detector_a(E2, 0.1) == -1.0

    def test_elsewhere(self):
        assert detector_a(E1, -7.3) == 1.0

    def test_antisymmetry_bulk(self):
        # at equal settings station 2 reads B_c = -A_c on every half-cell
        rng = np.random.default_rng(7)
        for n in (4, 9, 32):
            for _ in range(5):
                mu = measure.build_measure(*[random_unit_vector(rng)] * 2, n)
                np.testing.assert_array_equal(mu.outcome[1], -mu.outcome[0])

    @given(unit_settings(), st.floats(min_value=-3, max_value=21, exclude_max=True, allow_nan=False))
    def test_antisymmetry_property(self, c, x):
        mu = measure.build_measure(*[measure.as_setting(c, normalize=True)] * 2, 4)
        cell = math.floor(x)
        half = 0 if x - cell < 0.5 else 1
        a_out, b_out = mu.outcome[:, cell + 3, half]
        assert b_out == -a_out == -detector_a(mu.a, x)

    @pytest.mark.parametrize("n", [4, 7])
    def test_outcome_table_matches_detectors(self, n):
        # half-cell midpoints of every diagonal position p (cell [p-3, p-2))
        size = 3 * n + 12
        mids = (np.arange(size)[:, None] - 3.0 + np.array([0.25, 0.75])).ravel()
        rng = np.random.default_rng(11)
        edge = [E1, E3, (-0.0, 0.6, -0.8), (0.5, -0.5, np.sqrt(0.5)), (0.0, -1.0, 0.0)]
        settings = edge + [random_unit_vector(rng) for _ in range(4)]
        for a in settings:
            for b in settings:
                mu = measure.build_measure(
                    *(measure.as_setting(v, normalize=True) for v in (a, b)), n
                )
                assert mu.outcome.dtype == np.int8 and mu.outcome.shape == (2, size, 2)
                expect_a = detector_a(mu.a, mids).reshape(size, 2)
                expect_b = -detector_a(mu.b, mids).reshape(size, 2)
                np.testing.assert_array_equal(mu.outcome[0], expect_a)
                np.testing.assert_array_equal(mu.outcome[1], expect_b)

    @given(unit_settings(), st.floats(min_value=-10, max_value=30, allow_nan=False))
    def test_detector_range(self, c, x):
        assert detector_a(c, x) in (-1.0, 1.0)


class TestStepFunctions:
    def test_alternating_sign(self):
        assert step_sign(0.25, 2) == -1.0
        assert step_sign(0.75, 2) == 1.0

    def test_single_interval(self):
        assert step_sign(0.4, 1) == -1.0
        assert step_weight(0.4, [1.0]) == 1.0

    def test_weight_lookup(self):
        assert step_weight(0.6, [0.1, 0.2, 0.3, 0.4]) == 0.3

    @pytest.mark.parametrize("w", [-0.1, 1.0, 2.5])
    def test_domain(self, w):
        with pytest.raises(ValueError):
            step_sign(w, 2)
        with pytest.raises(ValueError):
            step_weight(w, [0.5, 0.5])

    @given(st.floats(min_value=0, max_value=1, exclude_max=True), st.integers(1, 12))
    def test_sign_is_alternating(self, w, L):
        ell = int(w * L) + 1
        assert step_sign(w, L) == (-1.0) ** ell


class TestFactors:
    def test_sigma_negative_strips(self):
        mu = measure.build_measure(E1, E1, 4)
        assert column_weight(mu, -0.5) == 1.0
        assert column_weight(mu, -1.5) == 0.0

    def test_sigma_spline_cells(self):
        mu = measure.build_measure([0.6, 0.8, 0.0], [0.8, 0.6, 0.0], 4)
        # cell 3 carries N_3(|a_1|); its support starts at 0.75 so this is 0
        assert column_weight(mu, 2.5) == pytest.approx(0.0, abs=0)
        # cell 2 carries N_2(0.6) = 0.08
        assert column_weight(mu, 1.5) == pytest.approx(0.08, abs=1e-13)

    def test_tau_negative_strips(self):
        mu = measure.build_measure(E2, E2, 4)
        assert row_weight(mu, -1.5) == 1.0
        mu = measure.build_measure(E1, E1, 4)
        assert row_weight(mu, -2.5) == 0.0

    def test_tau_spline_cells(self):
        mu = measure.build_measure([0.8, 0.6, 0.0], [0.6, 0.8, 0.0], 4)
        # cell 3 carries psi_3(|b_1|)/2 = 0.26 / 2
        assert row_weight(mu, 2.5) == pytest.approx(0.13, abs=1e-13)

    def test_factors_vanish_outside_domain(self):
        mu = measure.build_measure(E1, E2, 4)
        assert column_weight(mu, -3.5) == 0.0
        assert column_weight(mu, domain_high(mu.n)) == 0.0
        assert row_weight(mu, 50.0) == 0.0


class TestDiagonalIndicator:
    def test_examples(self):
        assert diagonal_indicator(0.5, 0.5, 4) == 1
        assert diagonal_indicator(0.5, 1.5, 4) == 0
        assert diagonal_indicator(-2.5, -2.5, 4) == 1

    def test_extended_cells(self):
        # boundary-spline cells sit at [3n, 3n+9)
        assert diagonal_indicator(20.5, 20.5, 4) == 1
        assert diagonal_indicator(21.5, 21.5, 4) == 0
        assert diagonal_indicator(-3.5, -3.5, 4) == 0


class TestDensity:
    def test_negative_cell_value(self):
        mu = measure.build_measure(E1, E1, 4)
        assert density(mu, -0.5, -0.5) == 1.0

    def test_off_diagonal_zero(self):
        mu = measure.build_measure(E1, E1, 4)
        assert density(mu, -0.5, 0.5) == 0.0

    def test_product_structure_on_spline_cell(self):
        mu = measure.build_measure([0.6, 0.8, 0.0], [0.8, 0.6, 0.0], 4)
        # frozen: N_3(0.6) * psi_3(0.8)/2 = 0 * 0.045
        assert density(mu, 2.5, 2.5) == pytest.approx(0.0, abs=0)
        # frozen nonzero case: N_1(0.6) * psi_1(0.8)/2 = 0.74 * 0.0075
        assert density(mu, 0.5, 0.5) == pytest.approx(0.00555, abs=1e-13)

    def test_density_factors(self):
        rng = np.random.default_rng(11)
        mu = measure.build_measure(random_unit_vector(rng), random_unit_vector(rng), 4)
        for _ in range(200):
            u = rng.uniform(-3.0, domain_high(mu.n))
            v = float(np.floor(u)) + rng.random()  # same cell as u
            expect = column_weight(mu, u) * row_weight(mu, v)
            assert density(mu, u, v) == pytest.approx(expect, abs=1e-15)


# The clip defect per component is at most (1/4 n^2) * max N = 3/(16 n^2),
# so the provable excess bound is 9/(32 n^2); the sharper 1/(4 n^2) window
# holds for typical setting pairs but not adversarial ones.
PROVABLE_EXCESS = 9.0 / 32.0


class TestMassAccounting:
    def test_equal_settings(self):
        rng = np.random.default_rng(3)
        for n in (4, 8):
            for _ in range(25):
                a = random_unit_vector(rng)
                mu = measure.build_measure(a, a, n)
                mass = measure.total_mass(mu)
                m1 = float(np.sum(np.abs(a) * np.abs(a)))
                assert m1 == pytest.approx(1.0, abs=1e-12)
                assert 0.0 <= mass - 1.0 <= PROVABLE_EXCESS / n**2

    def test_orthogonal_axes_frozen(self):
        mu = measure.build_measure(E1, E2, 4)
        assert measure.total_mass(mu) == pytest.approx(1.0, abs=1e-12)

    def test_against_brute_cell_sum(self):
        a = [0.6, 0.8, 0.0]
        b = [0.8, 0.6, 0.0]
        mu = measure.build_measure(a, b, 8)
        assert measure.total_mass(mu) == pytest.approx(naive_total_mass(8, a, b), abs=1e-13)
        rng = np.random.default_rng(5)
        for _ in range(10):
            av, bv = random_unit_vector(rng), random_unit_vector(rng)
            mu = measure.build_measure(av, bv, 4)
            assert measure.total_mass(mu) == pytest.approx(
                naive_total_mass(4, av, bv), abs=1e-13
            )

    def test_cell_masses_match_oracle(self):
        rng = np.random.default_rng(17)
        a, b = random_unit_vector(rng), random_unit_vector(rng)
        mu = measure.build_measure(a, b, 4)
        for i in range(-2, 3 * 4 + 10):
            assert mu.cell_masses[i + 2] == pytest.approx(naive_cell_mass(4, a, b, i), abs=1e-14)

    def test_mass_window_random(self):
        rng = np.random.default_rng(99)
        for n in (4, 8, 16):
            for _ in range(100):
                mu = measure.build_measure(random_unit_vector(rng), random_unit_vector(rng), n)
                mass = measure.total_mass(mu)
                assert 1.0 - 1e-12 <= mass <= 1.0 + PROVABLE_EXCESS / n**2
                # the looser theorem-level window always holds
                assert mass < 1.0 + 1.0 / n**2


class TestIdentityProperties:
    """The exact identities at every valid input, edge settings included."""

    # the floor's witness: its computed mass - 1 is about -1.1e-16, below the
    # [1, 1 + 1/(4 n^2)) window by rounding
    @settings(max_examples=300, deadline=None)
    @example(case=(4, (0.25, 0.25, -math.sqrt(0.875)), (1.0, 0.0, -0.0)), seed=0)
    @given(case=edge_cases(), seed=st.integers(0, 2**32 - 1))
    def test_identities(self, case, seed):
        n, a, b = case
        a, b = (measure.as_setting(v, normalize=True) for v in (a, b))
        mu = measure.build_measure(a, b, n)
        mass = measure.total_mass(mu)
        assert 1.0 - 4 * 2.0**-53 <= mass <= 1.0 + PROVABLE_EXCESS / n**2
        assert abs(measure.pair_integral(mu) + float(np.dot(mu.a, mu.b))) <= 1e-12
        rng = np.random.default_rng(seed)
        uni = layers.build_universe(n, int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
        # each source-level bin is a union of station bins, so zero bias by
        # station is zero bias by source as well
        for side, (intact, witness) in analysis.outcome_biases(uni, mu).items():
            assert intact == 0.0, side
            assert 0.0 <= witness <= 1.0, side


class TestPairIntegral:
    def test_equal_settings(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = random_unit_vector(rng)
            mu = measure.build_measure(a, a, 4)
            assert measure.pair_integral(mu) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        mu = measure.build_measure(E1, E2, 4)
        assert measure.pair_integral(mu) == pytest.approx(0.0, abs=1e-12)

    def test_45_degrees(self):
        b = [np.sqrt(0.5), np.sqrt(0.5), 0.0]
        mu = measure.build_measure(E1, b, 4)
        assert measure.pair_integral(mu) == pytest.approx(-np.sqrt(0.5), abs=1e-12)

    def test_random_pairs(self):
        rng = np.random.default_rng(31)
        for n in (4, 8, 16):
            for _ in range(60):
                a, b = random_unit_vector(rng), random_unit_vector(rng)
                mu = measure.build_measure(a, b, n)
                assert abs(measure.pair_integral(mu) + float(np.dot(mu.a, mu.b))) <= 1e-12

    def test_positive_cells_contribute_zero(self):
        rng = np.random.default_rng(37)
        mu = measure.build_measure(random_unit_vector(rng), random_unit_vector(rng), 4)
        cells = measure.cell_pair_integrals(mu)
        assert cells.shape == (3 * 4 + 12,)
        assert np.all(cells[3:] == 0.0)


class TestWExtension:
    def test_sign_squared_weights_sum_to_one(self):
        # the w factor in every correlation integral is sum_l p_l s_l^2 = 1
        p = measure.validate_weights([0.25, 0.5, 0.25])
        signs = np.array([step_sign((ell + 0.5) / 3, 3) for ell in range(3)])
        assert float(np.sum(p * signs**2)) == pytest.approx(1.0, abs=1e-15)


class TestGapVariant:
    def test_equal_settings_unit_mass(self):
        gv = measure.gap_variant([0.6, 0.8, 0.0], [0.6, 0.8, 0.0])
        assert gv["m2"] == pytest.approx(0.0, abs=1e-15)
        assert gv["total"] == pytest.approx(1.0, abs=1e-12)
        assert gv["is_unit_mass"]

    def test_orthogonal_settings_flagged(self):
        # as defined the gap masses add to 2 here, not 1; the flag records it
        gv = measure.gap_variant(E1, E2)
        assert gv["m1"] == 0.0
        assert gv["m2"] == pytest.approx(2.0, abs=1e-12)
        assert gv["total"] == pytest.approx(2.0, abs=1e-12)
        assert not gv["is_unit_mass"]

    def test_masses_sum_the_oracle_cells(self):
        # m1 sums the three negative cells, m2 the three gap cells [k-1, k)^2
        for a, b in ((E1, E2), ([0.6, -0.8, 0.0], [0.0, 0.28, 0.96]), (E3, [0.6, 0.0, -0.8])):
            gv = measure.gap_variant(a, b)
            negative = [gap_variant_cell_mass(a, b, i) for i in (-2, -1, 0)]
            gaps = [gap_variant_cell_mass(a, b, i) for i in (1, 2, 3)]
            assert gv["m1"] == pytest.approx(math.fsum(negative), abs=1e-15)
            assert gv["m2"] == pytest.approx(math.fsum(gaps), abs=1e-15)
        # orthogonal axes: no negative mass, and unit gaps on two cells
        assert [gap_variant_cell_mass(E1, E2, i) for i in (-2, -1, 0)] == [0.0, 0.0, 0.0]
        assert sorted(gap_variant_cell_mass(E1, E2, i) for i in (1, 2, 3)) == [0.0, 1.0, 1.0]


def test_spline_factor_consistency_with_system():
    # column/row weights agree with direct spline evaluation on every cell
    a = measure.as_setting([0.48, 0.64, 0.6], normalize=True)
    b = measure.as_setting([0.36, 0.48, 0.8], normalize=True)
    mu = measure.build_measure(a, b, 4)
    sys4 = splines.SplineSystem(4)
    for i in range(1, 3 * 4 + 10):
        comp, s = naive_cell_index(4, i)
        u = i - 0.5
        assert column_weight(mu, u) == pytest.approx(
            splines.basis_matrix(sys4, abs(mu.a[comp]))[s + 2, 0], abs=1e-14
        )
        assert row_weight(mu, u) == pytest.approx(
            0.5 * splines.clipped_weight_matrix(sys4, abs(mu.b[comp]))[s + 2, 0], abs=1e-14
        )
