import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim import splines

from oracles import naive_clipped_poly, naive_knot_poly, naive_quadratic, naive_squared_diff_sum

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
order_params = st.sampled_from([4, 5, 8, 16])


def test_knots_for_n4():
    sys4 = splines.SplineSystem(4)
    expected = np.arange(-2, 8) / 4  # -0.5 .. 1.75 spaced 0.25
    np.testing.assert_allclose(sys4.knots, expected, atol=0)
    assert sys4.knots[3] == 0.25  # y_1
    # basis indices i = -2 .. n, one row each
    assert splines.basis_matrix(sys4, 0.5).shape == (7, 1)


def test_partition_of_unity_spot():
    sys4 = splines.SplineSystem(4)
    assert abs(splines.basis_matrix(sys4, 0.37).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [3, 2, 0, -1])
def test_small_n_rejected(n):
    with pytest.raises(ValueError):
        splines.SplineSystem(n)


def test_basis_compact_support():
    sys4 = splines.SplineSystem(4)
    # N_0 (row 2) lives on [0, 0.75)
    n0 = splines.basis_matrix(sys4, [-0.01, 0.75, 0.9, 0.25])[2]
    assert n0[0] == 0.0
    assert n0[1] == 0.0
    assert n0[2] == 0.0
    assert 0.0 < n0[3] <= 1.0


def test_basis_value_frozen_and_oracle():
    sys4 = splines.SplineSystem(4)
    assert splines.basis_matrix(sys4, 0.375)[2, 0] == pytest.approx(0.75, abs=1e-14)
    rng = np.random.default_rng(20250810)
    for _ in range(300):
        i = int(rng.integers(-2, 5))
        x = float(rng.uniform(-0.6, 1.2))
        assert splines.basis_matrix(sys4, x)[i + 2, 0] == pytest.approx(
            naive_quadratic(4, i, x), abs=1e-13
        )


@given(n=order_params, x=unit_floats)
def test_partition_of_unity_property(n, x):
    sysn = splines.SplineSystem(n)
    assert abs(splines.basis_matrix(sysn, x).sum() - 1.0) <= 1e-12


@given(n=order_params, x=unit_floats)
def test_basis_values_within_unit_interval(n, x):
    sysn = splines.SplineSystem(n)
    col = splines.basis_matrix(sysn, x)[:, 0]
    assert np.all(col >= 0.0) and np.all(col <= 1.0)


def test_knot_poly_examples():
    sys4 = splines.SplineSystem(4)
    phi0 = splines.marsden_weight_matrix(sys4, [0.25, 0.375, 1.0])[2]  # i = 0
    assert phi0[0] == 0.0
    assert phi0[1] == pytest.approx(-0.015625, abs=0)
    assert phi0[2] == pytest.approx(0.375, abs=0)


def test_clipped_poly_examples():
    sys4 = splines.SplineSystem(4)
    # psi_0 (row 2) is zeroed inside [y_1, y_2] = [0.25, 0.5]
    psi0 = splines.clipped_weight_matrix(sys4, [0.375, 1.0])[2]
    assert psi0[0] == 0.0
    assert psi0[1] == pytest.approx(0.375, abs=0)
    with pytest.raises(ValueError):
        splines.clipped_weight_matrix(sys4, 1.5)
    with pytest.raises(ValueError):
        splines.clipped_weight_matrix(sys4, -0.1)


def test_clipped_poly_bounds_on_fine_grid():
    sys4 = splines.SplineSystem(4)
    ys = np.linspace(0.0, 1.0, 10001)
    vals = splines.clipped_weight_matrix(sys4, ys)
    assert vals.min() >= 0.0
    assert vals.max() <= 2.0


@given(n=order_params, y=unit_floats)
def test_clipped_poly_matches_naive(n, y):
    sysn = splines.SplineSystem(n)
    col = splines.clipped_weight_matrix(sysn, y)[:, 0]
    for i in range(-2, n + 1):
        assert col[i + 2] == pytest.approx(naive_clipped_poly(n, i, y), abs=1e-13)


def _approx_squared_diff(sys, x, y):
    return splines.approx_squared_diff_grid(sys, x, y)[0, 0]


def test_approx_squared_diff_frozen_cases():
    sys4 = splines.SplineSystem(4)
    val = _approx_squared_diff(sys4, 0.5, 0.5)
    assert 0.0 <= val <= 0.015625
    val = _approx_squared_diff(sys4, 0.0, 1.0)
    assert 1.0 <= val <= 1.015625
    with pytest.raises(ValueError):
        splines.approx_squared_diff_grid(sys4, -0.1, 0.5)
    with pytest.raises(ValueError):
        splines.approx_squared_diff_grid(sys4, 0.5, 1.1)


def test_approx_squared_diff_oracle_n8():
    sys8 = splines.SplineSystem(8)
    # clipped index for y=0.7 has no support at x=0.3, so the sum is exact
    assert _approx_squared_diff(sys8, 0.3, 0.7) == pytest.approx(0.16, abs=1e-13)
    assert naive_squared_diff_sum(8, 0.3, 0.7) == pytest.approx(0.16, abs=1e-13)
    # at x = y = 0.3 the correction is |phi_1(0.3)| * N_1(0.3) = 0.00375 * 0.74
    got = _approx_squared_diff(sys8, 0.3, 0.3)
    assert got == pytest.approx(0.002775, abs=1e-13)
    assert got == pytest.approx(naive_squared_diff_sum(8, 0.3, 0.3), abs=1e-13)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_residual_window_on_grid(n):
    sysn = splines.SplineSystem(n)
    grid = np.linspace(0.0, 1.0, 101)
    surface = splines.approx_squared_diff_grid(sysn, grid, grid)
    residual = surface - (grid[:, None] - grid[None, :]) ** 2
    bound = splines.squared_diff_defect_bound(sysn)
    assert residual.min() >= -1e-12
    assert residual.max() <= bound + 1e-12


@pytest.mark.parametrize("n", [4, 8, 16])
def test_marsden_identity_on_grid(n):
    sysn = splines.SplineSystem(n)
    grid = np.linspace(0.0, 1.0, 101)
    reproduced = splines.marsden_weight_matrix(sysn, grid).T @ splines.basis_matrix(sysn, grid)
    target = (grid[:, None] - grid[None, :]) ** 2
    assert np.abs(reproduced - target).max() <= 1e-10


@pytest.mark.parametrize("n", [4, 8])
def test_single_term_correction(n):
    sysn = splines.SplineSystem(n)
    bound = splines.squared_diff_defect_bound(sysn)
    for y in np.linspace(0.0, 1.0, 501):
        phi = splines.marsden_weight_matrix(sysn, y)[:, 0]
        psi = splines.clipped_weight_matrix(sysn, y)[:, 0]
        changed = np.nonzero(psi != phi)[0]
        assert changed.size <= 1
        if changed.size:
            assert abs(phi[changed[0]]) <= bound


def test_evaluation_is_deterministic():
    sys16 = splines.SplineSystem(16)
    xs = np.linspace(0.0, 1.0, 37)
    first = splines.basis_matrix(sys16, xs)
    second = splines.basis_matrix(sys16, xs)
    assert np.array_equal(first, second)
    assert np.array_equal(
        splines.approx_squared_diff_grid(sys16, xs, xs),
        splines.approx_squared_diff_grid(sys16, xs, xs),
    )


@settings(max_examples=30)
@given(n=order_params, y=st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
def test_knot_poly_matches_naive_everywhere(n, y):
    sysn = splines.SplineSystem(n)
    col = splines.marsden_weight_matrix(sysn, y)[:, 0]
    for i in (-2, 0, n):
        assert col[i + 2] == pytest.approx(naive_knot_poly(n, i, y), abs=1e-12)
