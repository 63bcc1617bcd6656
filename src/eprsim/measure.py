"""First-layer measure on the diagonal cells and its detector outcome table.

The measure for a setting pair (a, b) puts constant mass on unit squares
lined up along the main diagonal of Omega.  Three negative-axis cells carry
|a_k||b_k| and reproduce the spin correlation -a.b exactly; the positive
cells carry the spline products N_i(|a_k|) * psi_i(|b_k|) / 2 whose total is
sum_k (|a_k|-|b_k|)^2 / 2 up to the clipping defect, so the total mass lands
in [1, 1 + 1/(4 n^2)).

Cell layout along the diagonal (cell index i labels the square [i-1, i)^2):

  i = -2, -1, 0        component k = 1 - i, mass |a_k||b_k|
  i = 1 .. 3n          component ceil(i/n), spline index 1 .. n
  i = 3n+1 .. 3n+9     boundary spline indices -2, -1, 0 per component

The nine trailing cells hold the left-boundary splines that the exact
polynomial reproduction needs; without them the positive mass would fall
short whenever a component is below 3/n.  Omega is [-3, 3n+9)^2 accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .splines import SplineSystem, basis_matrix, clipped_weight_matrix

SETTING_NORM_TOL = 1e-9

# how far from 1 `math.hypot` of an `as_setting` output can be: the norm it
# was divided by is off by at most 2.5 units of 2**-53 (the three-term dot
# product and its square root), the division adds one on each component and
# hypot under one, so 4.5 * 2**-53 to first order; 2**-50 leaves room
UNIT_NORM_TOL = 2.0**-50


def as_setting(v, normalize: bool = False) -> np.ndarray:
    """Validate a measurement setting as a unit vector in R^3.

    Rejects vectors whose norm deviates from 1 by more than
    `SETTING_NORM_TOL` unless `normalize` is requested, and returns the
    vector divided by its norm, read-only.  A read-only float64 array of
    shape (3,) whose norm is within `UNIT_NORM_TOL` of 1 (so finite), as
    every output is, is returned as it is: a setting keeps its bits.
    """
    kept = isinstance(v, np.ndarray) and v.dtype == float and v.shape == (3,)
    if kept and not v.flags.writeable and abs(math.hypot(*v) - 1.0) <= UNIT_NORM_TOL:
        return v
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"setting must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("setting components must be finite")
    scale = max(map(abs, arr.tolist()))
    if scale == 0.0:
        raise ValueError("setting must be a nonzero vector")
    # where the largest component's square could overflow or lose bits to
    # underflow, an exact power of two first brings that component into
    # [0.5, 1); other settings are divided as they are, keeping their bits
    shift = 0 if 2.0**-500 <= scale <= 2.0**500 else math.frexp(scale)[1]
    if shift:
        arr = np.ldexp(arr, -shift)
    norm = float(np.linalg.norm(arr))
    if not normalize and (shift or abs(norm - 1.0) > SETTING_NORM_TOL):
        with np.errstate(over="ignore"):
            norm = float(np.ldexp(norm, shift))
        raise ValueError(f"setting norm {norm!r} deviates from 1 by more than {SETTING_NORM_TOL}")
    out = arr / norm
    out.setflags(write=False)
    return out


def setting_from_angle(theta_degrees: float) -> np.ndarray:
    """Coplanar setting (cos t, sin t, 0) for an angle in degrees."""
    t = np.deg2rad(float(theta_degrees))
    return as_setting([np.cos(t), np.sin(t), 0.0], normalize=True)


def validate_weights(p) -> np.ndarray:
    """Validate interval weights: nonnegative, each vector along the last axis
    summing to 1 within 1e-12.  A read-only C-contiguous float64 array of at
    least one axis is returned as it is; any other input as a read-only float
    copy."""
    kept = isinstance(p, np.ndarray) and p.ndim > 0 and p.dtype == float
    if kept and p.flags.c_contiguous and not p.flags.writeable:
        out = p
    else:
        out = np.array(p, dtype=float, ndmin=1)
    if out.shape[-1] < 1:
        raise ValueError("weight vector must have at least one entry")
    # two reductions, no mask the size of the weights: a NaN fails both
    # comparisons, and -0.0 passes; an empty array has no min to take
    if out.size and not (out.min() >= 0.0 and out.max() <= np.finfo(float).max):
        raise ValueError("weights must be finite and nonnegative")
    off = np.abs(out.sum(axis=-1) - 1.0)
    if np.any(off > 1e-12):
        raise ValueError(f"weights must sum to 1, off by up to {float(np.max(off))!r}")
    out.setflags(write=False)
    return out


def diagonal_cell_count(n: int) -> int:
    """Number of diagonal cells: 3 negative + 3n main + 9 boundary."""
    return 3 * n + 12


def _cell_mass_vector(sys: SplineSystem, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Masses of all diagonal cells, position p <-> cell index i = p - 2."""
    n = sys.n
    absa = np.abs(a)
    absb = np.abs(b)
    na = basis_matrix(sys, absa)  # (n+3, 3): rows i=-2..n, cols components
    pb = clipped_weight_matrix(sys, absb)
    masses = np.empty(diagonal_cell_count(n))
    # cells i = -2, -1, 0 hold components k = 3, 2, 1
    masses[0:3] = (absa * absb)[::-1]
    for comp in range(3):
        block = 0.5 * na[:, comp] * pb[:, comp]  # indices i = -2 .. n
        # main cells carry i = 1 .. n, boundary cells carry i = -2 .. 0
        masses[3 + comp * n : 3 + (comp + 1) * n] = block[3:]
        masses[3 + 3 * n + comp * 3 : 3 + 3 * n + (comp + 1) * 3] = block[:3]
    return masses


def _outcome_table(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """outcome[side, position, half]: A_a (side 0) and B_b = -A_b (side 1) on
    the half-cells of the base layer's diagonal column/row strips."""
    table = np.tile(np.array([-1, 1], dtype=np.int8), (2, size, 1))
    # the three negative cells (positions 0, 1, 2 hold components 3, 2, 1)
    # take the component's sign, with sign(0) = sign(-0.0) = +1
    table[:, :3] = np.where(np.stack([a, b])[:, ::-1, None] >= 0.0, 1, -1)
    table[1] *= -1
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class BaseMeasure:
    """First-layer measure: settings, order n, cell masses, outcome table."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    n: int
    cell_masses: np.ndarray = field(repr=False, compare=False)
    outcome: np.ndarray = field(repr=False, compare=False)


def build_measure(a, b, n: int) -> BaseMeasure:
    """Construct the first-layer measure for unit settings a, b and n >= 4."""
    a, b = as_setting(a), as_setting(b)
    sys = SplineSystem(int(n))
    masses = _cell_mass_vector(sys, a, b)
    masses.setflags(write=False)
    outcome = _outcome_table(a, b, masses.size)
    return BaseMeasure(a=a, b=b, n=sys.n, cell_masses=masses, outcome=outcome)


def total_mass(mu: BaseMeasure) -> float:
    """Exact total mass: sum of all diagonal cell masses."""
    return float(mu.cell_masses.sum())


def theta_hat(mu: BaseMeasure) -> float:
    """Excess over unit mass in units of n^-2 (should sit in [0, 1/4))."""
    return (total_mass(mu) - 1.0) * mu.n * mu.n


def cell_pair_integrals(mu: BaseMeasure) -> np.ndarray:
    """Exact integral of A B d(mass) over each diagonal cell, by position.

    The density is constant on a cell, and A (resp. B) is constant on each
    half of the cell's column (row), so each integral is the mass times the
    two half-averages.  Positive cells vanish because A averages to zero over
    a unit interval.
    """
    return mu.cell_masses * (mu.outcome.sum(axis=2).prod(axis=0) / 4.0)


def pair_integral(mu: BaseMeasure) -> float:
    """Integral of A_a(u) B_b(v) against the measure over Omega: equals -a.b."""
    return float(sum(cell_pair_integrals(mu).tolist()))


def gap_variant(a, b) -> dict:
    """Mass accounting for the squared-gap variant measure on
    Omega = [-3, 3)^2, as the `genuine_variant` report block
    {m1, m2, total, is_unit_mass}.

    Negative cells keep |a_k||b_k| (m1); the spline cells are replaced by
    cells [k-1, k)^2, k = 1, 2, 3, carrying (|a_k| - |b_k|)^2 (m2).  The
    pair integral is unchanged (-a.b) because the positive cells still
    integrate A and B to zero.  As defined the total is
    2 - sum |a_k||b_k|, which is unity only for componentwise-equal
    settings; `is_unit_mass` flags that.
    """
    a, b = as_setting(a), as_setting(b)
    absa, absb = np.abs(a), np.abs(b)
    m1, m2 = float(np.sum(absa * absb)), float(np.sum((absa - absb) ** 2))
    return {"m1": m1, "m2": m2, "total": m1 + m2, "is_unit_mass": abs(m1 + m2 - 1.0) <= 1e-12}
