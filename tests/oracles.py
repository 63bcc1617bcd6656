"""Independent oracles used to freeze and cross-check expected values.

Everything here is deliberately naive and self-contained: textbook scalar
recursions, direct formula evaluation, O(k^2) enumeration, loop-based big
integers.  None of it shares code with the package paths it checks.
"""

from __future__ import annotations

import numpy as np


def naive_basis(n: int, i: int, order: int, x: float) -> float:
    """Textbook recursive B-spline evaluation on the knots nu/n."""

    def knot(nu: int) -> float:
        return nu / n

    if order == 1:
        return 1.0 if knot(i) <= x < knot(i + 1) else 0.0
    left = 0.0
    denom = knot(i + order - 1) - knot(i)
    if denom:
        left = (x - knot(i)) / denom * naive_basis(n, i, order - 1, x)
    right = 0.0
    denom = knot(i + order) - knot(i + 1)
    if denom:
        right = (knot(i + order) - x) / denom * naive_basis(n, i + 1, order - 1, x)
    return left + right


def naive_quadratic(n: int, i: int, x: float) -> float:
    return naive_basis(n, i, 3, x)


def naive_knot_poly(n: int, i: int, y: float) -> float:
    return (y - (i + 1) / n) * (y - (i + 2) / n)


def naive_clipped_poly(n: int, i: int, y: float) -> float:
    if (i + 1) / n <= y <= (i + 2) / n:
        return 0.0
    return naive_knot_poly(n, i, y)


def naive_squared_diff_sum(n: int, x: float, y: float) -> float:
    """Marsden reproduction minus the single clipped term, all via the naive
    recursions: equals (y-x)^2 + |clipped phi| * N at the clipped index."""
    return sum(naive_clipped_poly(n, i, y) * naive_quadratic(n, i, x) for i in range(-2, n + 1))


def naive_cell_mass(n: int, a, b, i: int) -> float:
    """Mass of diagonal cell i from the definitions, via the naive splines."""
    absa = [abs(float(v)) for v in a]
    absb = [abs(float(v)) for v in b]
    if -2 <= i <= 0:
        k = 1 - i
        return absa[k - 1] * absb[k - 1]
    if 1 <= i <= 3 * n:
        comp = (i - 1) // n
        s = i - comp * n
    elif 3 * n < i <= 3 * n + 9:
        e = i - 3 * n - 1
        comp = e // 3
        s = (e % 3) - 2
    else:
        raise ValueError(f"not a diagonal cell: {i}")
    return naive_quadratic(n, s, absa[comp]) * 0.5 * naive_clipped_poly(n, s, absb[comp])


def naive_total_mass(n: int, a, b) -> float:
    return sum(naive_cell_mass(n, a, b, i) for i in range(-2, 3 * n + 10))


def factorial_oracle(n: int) -> int:
    out = 1
    for t in range(2, n + 1):
        out *= t
    return out


def binomial_oracle(n: int, r: int) -> int:
    if r < 0 or r > n:
        return 0
    out = 1
    for t in range(1, r + 1):
        out = out * (n - r + t) // t
    return out


def brute_extreme_discrepancy(points) -> float:
    """Exact sup over half-open intervals by O(k^2) enumeration of the
    critical endpoint configurations (limits at point positions)."""
    x = np.sort(np.asarray(points, dtype=float))
    k = x.size
    best = 0.0
    # overfilled: [x_i, x_j^+) captures the run at minimal length
    first = np.searchsorted(x, x, side="left")
    past = np.searchsorted(x, x, side="right")
    for i in range(k):
        lens = x[i:] - x[i]
        counts = past[i:] - first[i]
        best = max(best, float(np.max(counts / k - lens)))
    # underfilled: open spans between consecutive grid values {0} u points u {1}
    grid = np.concatenate([[0.0], x, [1.0]])
    below = np.searchsorted(x, grid, side="left")
    at_or_below = np.searchsorted(x, grid, side="right")
    for i in range(k + 1):
        lens = grid[i + 1 :] - grid[i]
        inner = below[i + 1 :] - at_or_below[i]
        best = max(best, float(np.max(lens - inner / k)))
    return best


def brute_conditional_marginal(layer_col_to, masses) -> np.ndarray:
    """Station-1 conditional cell marginal for one layer, by linear search
    instead of an inverse permutation."""
    size = len(layer_col_to)
    total = float(np.sum(masses))
    out = np.zeros(size)
    for column in range(size):
        for ensemble in range(size):
            if int(layer_col_to[ensemble]) == column:
                out[column] = masses[ensemble] / total
                break
    return out


def random_unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# --- per-label loop versions of the exact universe analysis -------------------
#
# Straight transcriptions of the definitions: one layer at a time, labels
# 1 .. 2M in order, each layer's relocation applied by index assignment.


def _loop_sign(x: float) -> float:
    return 1.0 if x >= 0.0 else -1.0


def _loop_labels(universe, odd_only: bool = False):
    step = 2 if odd_only else 1
    return [universe.layer(m) for m in range(1, universe.label_count + 1, step)]


def _loop_masses(mu) -> np.ndarray:
    return mu.cell_masses / mu.cell_masses.sum()


def loop_pair_expectation(universe, mu) -> float:
    """Average over labels of each layer's integral of A B: per cell, mass
    times the A and B averages over its strips, both carrying the layer sign,
    times the weight total sum_l p_l s_l^2."""
    size = mu.cell_masses.size
    acc = 0.0
    for lay in _loop_labels(universe):
        a_avg = np.zeros(size)
        b_avg = np.zeros(size)
        a_avg[0:3] = [_loop_sign(mu.a[2]), _loop_sign(mu.a[1]), _loop_sign(mu.a[0])]
        b_avg[0:3] = [-_loop_sign(mu.b[2]), -_loop_sign(mu.b[1]), -_loop_sign(mu.b[0])]
        integral = (mu.cell_masses * a_avg * b_avg).sum() * lay.sign * lay.sign
        acc += float(integral * lay.weights.sum())
    return acc / universe.label_count


def loop_station_pair_joint(universe, mu) -> np.ndarray:
    size = mu.cell_masses.size
    joint = np.zeros((size, size))
    for lay in _loop_labels(universe):
        np.add.at(joint, (lay.col_to, lay.row_to), _loop_masses(mu) / universe.label_count)
    return joint


def loop_conditional_outcome_bias(universe, mu, side="A", drop_companions=False, by="station"):
    size = mu.cell_masses.size
    masses = _loop_masses(mu)
    setting = mu.a if side == "A" else mu.b
    ell_count = universe.interval_count
    s_vals = np.array([-1.0 if (ell + 1) % 2 else 1.0 for ell in range(ell_count)])
    prof = np.empty((size, 2))
    for p in range(size):
        i = p - 2
        if i <= 0:
            val = _loop_sign(setting[-i]) * (1.0 if side == "A" else -1.0)
            prof[p] = (val, val)
        else:
            prof[p] = (-1.0, 1.0) if side == "A" else (1.0, -1.0)
    num = np.zeros((size, 2, ell_count))
    den = np.zeros((size, 2, ell_count))
    for lay in _loop_labels(universe, odd_only=drop_companions):
        to = lay.col_to if side == "A" else lay.row_to
        weight = masses[:, None, None] * lay.weights[None, None, :]
        num[to] += lay.sign * prof[:, :, None] * s_vals[None, None, :] * weight
        den[to] += np.broadcast_to(weight, (size, 2, ell_count))
    if by == "source":
        num = num.sum(axis=(0, 1), keepdims=True)
        den = den.sum(axis=(0, 1), keepdims=True)
    ratios = np.zeros_like(num)
    occupied = den > 0.0
    ratios[occupied] = np.abs(num[occupied]) / den[occupied]
    return float(ratios.max())


def loop_dependence_report(universe, mu_ab, mu_ac) -> dict:
    """All seven dependence diagnostics, label by label."""
    size = mu_ab.cell_masses.size
    labels = _loop_labels(universe)
    masses = _loop_masses(mu_ab)
    masses_ac = _loop_masses(mu_ac)

    def tv(p, q):
        return 0.5 * float(np.abs(p - q).sum())

    joint = loop_station_pair_joint(universe, mu_ab)
    marg_u, marg_v = joint.sum(axis=1), joint.sum(axis=0)
    uniform = np.full(size, 1.0 / size)
    out = {
        "tv_joint_vs_product": tv(joint, np.outer(marg_u, marg_v)),
        "marginal_uniformity": max(tv(marg_u, uniform), tv(marg_v, uniform)),
        "tv_cond_indep": 0.0,
        "cond_pair_dependence": np.inf,
        "setting_shift": 0.0,
    }
    for lay in labels:
        atom = np.outer(masses, lay.weights)
        product = np.outer(atom.sum(axis=1), atom.sum(axis=0))
        out["tv_cond_indep"] = max(out["tv_cond_indep"], tv(atom, product))
        pu, pv, pu_ac = np.zeros(size), np.zeros(size), np.zeros(size)
        pu[lay.col_to] = masses
        pv[lay.row_to] = masses
        pu_ac[lay.col_to] = masses_ac
        pair = np.zeros((size, size))
        pair[lay.col_to, lay.row_to] = masses
        out["cond_pair_dependence"] = min(out["cond_pair_dependence"], tv(pair, np.outer(pu, pv)))
        out["setting_shift"] = max(out["setting_shift"], tv(pu, pu_ac))
    weights = np.stack([lay.weights for lay in labels])
    mean_weights = weights.mean(axis=0)
    out["r_lambda_dependence"] = 0.5 * float(np.abs(weights - mean_weights).sum()) / len(labels)
    triple = np.zeros((size, size, universe.interval_count))
    for lay in labels:
        np.add.at(triple, (lay.col_to, lay.row_to), np.outer(masses, lay.weights) / len(labels))
    out["factorization_defect"] = float(np.abs(triple - joint[:, :, None] * mean_weights).max())
    return out


def universe_to_dict(universe) -> dict:
    """Legacy `layer-universe/1` document of a universe: one object of plain
    lists per companion pair, positions written as cell indices (position - 2).
    The package writes only `/2`; this writer feeds its `/1` reader."""
    pairs = [
        {"columns": col, "rows": row, "weights": weights}
        for col, row, weights in zip(
            (universe.col_to - 2).tolist(),
            (universe.row_to - 2).tolist(),
            universe.weights.tolist(),
        )
    ]
    return {
        "schema": "layer-universe/1",
        "n": universe.n,
        "interval_count": universe.interval_count,
        "pairs": pairs,
    }
