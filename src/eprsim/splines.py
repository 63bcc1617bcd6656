"""Uniform quadratic B-spline system with Marsden-identity weights.

The system carries the order-3 (piecewise-quadratic) B-splines N_i on the
uniform knots nu/n, together with the knot polynomials
phi_i(y) = (y - y_{i+1})(y - y_{i+2}) that reproduce (y - x)^2 exactly, and
their nonnegative clips psi_i (phi zeroed on its sign-changing interval).
The clipped sum approximates (y - x)^2 from above with defect at most
1/(4 n^2), which is what bounds the measure excess downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_ORDER_PARAM = 4

# Basis indices run i = FIRST_INDEX .. n; the three extra left-boundary
# splines are required for exact polynomial reproduction on [0, 1].
FIRST_INDEX = -2


def check_order(n: int) -> None:
    """Refuse an order parameter n below MIN_ORDER_PARAM."""
    if n < MIN_ORDER_PARAM:
        raise ValueError(f"order parameter n must be >= {MIN_ORDER_PARAM}, got {n}")


@dataclass(frozen=True)
class SplineSystem:
    """Immutable quadratic B-spline basis on knots nu/n, nu = -2 .. n+3."""

    n: int
    knots: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        check_order(self.n)
        knots = np.arange(FIRST_INDEX, self.n + 4, dtype=float) / self.n
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)


def basis_matrix(sys: SplineSystem, x) -> np.ndarray:
    """All basis values N_i(x): shape (n + 3, len(x)), row j holds i = j - 2.

    Bottom-up Cox-de Boor recursion over the whole knot vector.  Supports are
    half-open [y_i, y_{i+3}); at x = 1 the extended knots make the recursion
    close the basis from the right without special-casing.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    knots = sys.knots
    left = knots[:-1, None]
    right = knots[1:, None]
    b = ((left <= x) & (x < right)).astype(float)
    for order in (2, 3):
        m = b.shape[0] - 1
        t_i = knots[:m, None]
        t_i1 = knots[1 : 1 + m, None]
        t_deg = knots[order - 1 : order - 1 + m, None]
        t_end = knots[order : order + m, None]
        b = (x - t_i) / (t_deg - t_i) * b[:m] + (t_end - x) / (t_end - t_i1) * b[1 : 1 + m]
    return b


def marsden_weight_matrix(sys: SplineSystem, y) -> np.ndarray:
    """phi_i(y) = (y - y_{i+1})(y - y_{i+2}) for all i: shape (n + 3, len(y))."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = sys.n
    y1 = sys.knots[1 : n + 4, None]  # y_{i+1} for i = -2 .. n
    y2 = sys.knots[2 : n + 5, None]  # y_{i+2}
    return (y - y1) * (y - y2)


def _check_unit_interval(name: str, value: np.ndarray) -> None:
    if np.any(value < 0.0) or np.any(value > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")


def clipped_weight_matrix(sys: SplineSystem, y) -> np.ndarray:
    """psi_i(y): phi_i with the closed interval [y_{i+1}, y_{i+2}] zeroed.

    On that interval phi is the only negative lobe and |phi| <= 1/(4 n^2),
    so clipping keeps every weight in [0, 2] for y in [0, 1].
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_unit_interval("y", y)
    y1, y2 = sys.knots[1 : sys.n + 4, None], sys.knots[2 : sys.n + 5, None]
    return np.where((y >= y1) & (y <= y2), 0.0, marsden_weight_matrix(sys, y))


def approx_squared_diff_grid(sys: SplineSystem, xs, ys) -> np.ndarray:
    """S(x, y) = sum_i psi_i(y) N_i(x) on a grid: shape (len(ys), len(xs)).

    For x, y in [0, 1], 0 <= S - (y - x)^2 <= 1/(4 n^2)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    _check_unit_interval("x", xs)
    _check_unit_interval("y", ys)
    return clipped_weight_matrix(sys, ys).T @ basis_matrix(sys, xs)


def squared_diff_defect_bound(sys: SplineSystem) -> float:
    """Upper bound 1/(4 n^2) on S(x, y) - (y - x)^2 over the unit square."""
    return 0.25 / (sys.n * sys.n)


def identity_errors(sys: SplineSystem, grid) -> tuple[np.ndarray, dict]:
    """The residual S(x, y) - (y - x)^2 on the grid x = y = `grid` in [0, 1]
    (shape (len(grid), len(grid)), rows y) and the `splines` report's error
    fields: its min and max against the defect bound, and the largest
    partition-of-unity and Marsden-identity errors."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    square = (grid[:, None] - grid[None, :]) ** 2
    residual = approx_squared_diff_grid(sys, grid, grid) - square
    basis = basis_matrix(sys, grid)
    marsden = marsden_weight_matrix(sys, grid).T @ basis
    return residual, {
        "residual_min": float(residual.min()),
        "residual_max": float(residual.max()),
        "defect_bound": squared_diff_defect_bound(sys),
        "partition_max_error": float(np.abs(basis.sum(axis=0) - 1.0).max()),
        "marsden_max_error": float(np.abs(marsden - square).max()),
    }
