"""Independent oracles used to freeze and cross-check expected values.

Everything here is deliberately naive and self-contained: textbook scalar
recursions, direct formula evaluation, O(k^2) enumeration, loop-based big
integers, and the paper's pointwise definitions (detectors, step functions,
density factors, and the outcomes and densities of one labelled layer).
None of it shares code with the package paths it checks.
"""

from __future__ import annotations

import math

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


def naive_cell_index(n: int, i: int) -> tuple[int, int]:
    """(component 0..2, spline index) carried by positive diagonal cell i."""
    if 1 <= i <= 3 * n:
        comp = (i - 1) // n
        return comp, i - comp * n
    if 3 * n < i <= 3 * n + 9:
        e = i - 3 * n - 1
        return e // 3, (e % 3) - 2
    raise ValueError(f"not a positive diagonal cell: {i}")


def naive_cell_mass(n: int, a, b, i: int) -> float:
    """Mass of diagonal cell i from the definitions, via the naive splines."""
    absa = [abs(float(v)) for v in a]
    absb = [abs(float(v)) for v in b]
    if -2 <= i <= 0:
        k = 1 - i
        return absa[k - 1] * absb[k - 1]
    comp, s = naive_cell_index(n, i)
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


def emission_times(theta: float, k: int, rng):
    """The emission process drawn whole from k doubles of `rng`: the waits
    -theta*log(1-U), the emission times (their running sums), and the times'
    fractional parts."""
    waits = -theta * np.log1p(-rng.random(k))
    times = np.cumsum(waits)
    return waits, times, times - np.floor(times)


def whole_gate(p1: float, p2: float, label_count: int, k: int, theta: float, rng):
    """Ungated and gated label counts (labels 1 .. N) and the accepted count
    of k emissions, from one whole trace, then k draws against p1 and k
    against p2."""
    _, _, fracs = emission_times(theta, k, rng)
    labels = np.minimum((fracs * label_count).astype(np.int64) + 1, label_count)
    ready = (rng.random(k) < p1) & (rng.random(k) < p2)
    ungated = np.bincount(labels, minlength=label_count + 1)[1:]
    gated = np.bincount(labels[ready], minlength=label_count + 1)[1:]
    return ungated, gated, int(ready.sum())


def one_sided_discrepancies(points) -> tuple[float, float]:
    """D+ = max_i (i/k - x_(i)) and D- = max_i (x_(i) - (i-1)/k), each at
    least 0, over the whole sorted point set at once."""
    x = np.sort(np.asarray(points, dtype=float))
    grid = np.arange(1, x.size + 1) / x.size
    return max(float((grid - x).max()), 0.0), max(float((x - (grid - 1.0 / x.size)).max()), 0.0)


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


# --- pointwise paper definitions -------------------------------------------------


def detector_a(a, u):
    """Station-1 detector A_a(u): sign(a_k) on [-k, -k+1); -1/+1 half-cell
    alternation on [j, j+1) for j >= 0; +1 elsewhere.  Vectorized over u.
    Station 2 reads B_b(v) = -A_b(v)."""
    a = np.asarray(a, dtype=float)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.ones_like(u_arr)
    neg = (u_arr >= -3.0) & (u_arr < 0.0)
    k = (-np.floor(u_arr[neg])).astype(int)  # 1, 2, 3
    out[neg] = np.where(a[k - 1] >= 0.0, 1.0, -1.0)
    pos = u_arr >= 0.0
    out[pos] = np.where(u_arr[pos] - np.floor(u_arr[pos]) < 0.5, -1.0, 1.0)
    return out if np.ndim(u) else float(out[0])


def step_sign(w: float, interval_count: int) -> float:
    """Alternating sign step s(w) = (-1)^l on [(l-1)/L, l/L), l = 1 .. L."""
    if interval_count < 1:
        raise ValueError("interval count must be >= 1")
    wv = float(w)
    if not 0.0 <= wv < 1.0:
        raise ValueError(f"w must lie in [0, 1), got {wv}")
    ell = int(wv * interval_count) + 1
    return -1.0 if ell % 2 else 1.0


def step_weight(w: float, weights) -> float:
    """Weight lookup q(w) = p_l on [(l-1)/L, l/L)."""
    p = np.asarray(weights, dtype=float)
    wv = float(w)
    if not 0.0 <= wv < 1.0:
        raise ValueError(f"w must lie in [0, 1), got {wv}")
    return float(p[int(wv * p.size)])


def diagonal_indicator(u: float, v: float, n: int) -> int:
    """kappa(u, v): 1 iff (u, v) lies in a diagonal cell [i-1, i)^2 of
    Omega = [-3, 3n+9)^2."""
    uf, vf = float(u), float(v)
    hi = 3 * n + 9
    if not (-3.0 <= uf < hi and -3.0 <= vf < hi):
        return 0
    return 1 if math.floor(uf) == math.floor(vf) else 0


def column_weight(mu, u: float) -> float:
    """First density factor sigma(u): |a_k| on the negative strips, N_s(|a_k|)
    on the spline strips, 0 outside Omega; depends on the setting a only."""
    uf = float(u)
    if uf < -3.0 or uf >= 3 * mu.n + 9:
        return 0.0
    i = math.floor(uf) + 1  # cell index of the column strip
    if i <= 0:
        return abs(float(mu.a[-i]))  # k = 1 - i, component index k-1 = -i
    comp, s = naive_cell_index(mu.n, i)
    return naive_quadratic(mu.n, s, abs(float(mu.a[comp])))


def row_weight(mu, v: float) -> float:
    """Second density factor tau(v): |b_k| on the negative strips,
    psi_s(|b_k|) / 2 on the spline strips; depends on the setting b only."""
    vf = float(v)
    if vf < -3.0 or vf >= 3 * mu.n + 9:
        return 0.0
    i = math.floor(vf) + 1
    if i <= 0:
        return abs(float(mu.b[-i]))
    comp, s = naive_cell_index(mu.n, i)
    return 0.5 * naive_clipped_poly(mu.n, s, abs(float(mu.b[comp])))


def density(mu, u: float, v: float) -> float:
    """Joint density sigma(u) tau(v) kappa(u, v); constant on each cell."""
    if not diagonal_indicator(u, v, mu.n):
        return 0.0
    return column_weight(mu, u) * row_weight(mu, v)


def label_from_time(x: float, label_count: int) -> int:
    """Label m = floor({x} * N) + 1 read off the wrapped emission time."""
    if label_count < 1:
        raise ValueError("label count must be >= 1")
    frac = float(x) - math.floor(float(x))
    m = int(frac * label_count) + 1
    return min(m, label_count)


def interval_count(points, alpha: float, beta: float) -> int:
    """A_k(alpha, beta): number of points in the half-open interval [alpha, beta)."""
    return sum(1 for x in np.ravel(points) if alpha <= x < beta)


# --- one labelled layer of a universe ------------------------------------------
#
# Label m = 1 .. 2M of a universe is pair k = (m-1)//2 with sign +1 for odd m
# and -1 for even m (the companion).  A layer relocates the ensemble at
# diagonal position p (cell index p - 2) to column col_to[p] and row
# row_to[p], carrying its detector strips along.

_OUTSIDE = -1000


def label_layer(universe, m: int):
    """(col_to, row_to, weights, sign) of label m."""
    if not 1 <= m <= universe.label_count:
        raise ValueError(f"label {m} outside 1..{universe.label_count}")
    k = (m - 1) // 2
    return universe.col_to[k], universe.row_to[k], universe.weights[k], (1 if m % 2 else -1)


def _origin_cells(perm, coords, outside_base: bool = False) -> np.ndarray:
    """Original cell index (i = -2 .. 3n+9) whose strip the relocation `perm`
    (a layer's `col_to` or `row_to`) moved under each coordinate.

    Outside Omega there is nothing to permute: with `outside_base` the
    coordinate's own cell index is returned so the base detector profile
    continues unchanged; otherwise the sentinel marks zero density.
    """
    coords = np.atleast_1d(np.asarray(coords, dtype=float))
    cell = np.floor(coords).astype(np.int64) + 1
    inside = (coords >= -3.0) & (coords < perm.size - 3.0)
    origin = cell.copy() if outside_base else np.full(coords.shape, _OUTSIDE, dtype=np.int64)
    origin[inside] = np.argsort(perm)[cell[inside] + 2] - 2  # argsort inverts a permutation
    return origin


def _base_a_profile(a: np.ndarray, origin: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """A value from an original column index and the within-cell offset."""
    out = np.ones(origin.shape)
    neg = (origin >= -2) & (origin <= 0)
    comp = -origin[neg]  # component index k - 1
    out[neg] = np.where(a[comp] >= 0.0, 1.0, -1.0)
    pos = origin >= 1
    out[pos] = np.where(offset[pos] < 0.5, -1.0, 1.0)
    return out


def _step_signs(w, interval_count: int) -> np.ndarray:
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w_arr < 0.0) or np.any(w_arr >= 1.0):
        raise ValueError("w must lie in [0, 1)")
    ell = (w_arr * interval_count).astype(np.int64) + 1
    return np.where(ell % 2 == 1, -1.0, 1.0)


def _layer_spin(universe, m: int, setting, side: int, coords, w):
    col_to, row_to, weights, sign = label_layer(universe, m)
    setting = np.asarray(setting, dtype=float)
    arr = np.atleast_1d(np.asarray(coords, dtype=float))
    origin = _origin_cells((col_to, row_to)[side], arr, outside_base=True)
    profile = _base_a_profile(setting, origin, arr - np.floor(arr))
    out = sign * profile * _step_signs(w, weights.size)
    return out if np.ndim(coords) else float(out[0])


def layer_spin_a(universe, m: int, a, u, w):
    """Spin outcome of label m at station 1: sign * A_a(relocated u) * s(w).
    Total in u."""
    return _layer_spin(universe, m, a, 0, u, w)


def layer_spin_b(universe, m: int, b, v, w):
    """Spin outcome of label m at station 2: sign * B_b(relocated v) * s(w),
    B_b = -A_b."""
    return -_layer_spin(universe, m, b, 1, v, w)


def layer_density(universe, m: int, mu, u: float, v: float, w: float) -> float:
    """Permuted product density sigma tau kappa q of label m at a point; 0
    off-support."""
    if universe.n != mu.n:
        raise ValueError("universe and measure use different n")
    col_to, row_to, weights, _ = label_layer(universe, m)
    wf = float(w)
    if not 0.0 <= wf < 1.0:
        raise ValueError("w must lie in [0, 1)")
    ou = int(_origin_cells(col_to, u)[0])
    ov = int(_origin_cells(row_to, v)[0])
    if ou == _OUTSIDE or ov == _OUTSIDE or ou != ov:
        return 0.0
    return float(mu.cell_masses[ou + 2]) * step_weight(wf, weights)


def joint_density(universe, mu, u: float, v: float, w: float, m: int) -> float:
    """Joint density of (station-1, station-2, source, label) at one point.

    Per-layer densities are normalized by the base total mass before mixing
    so the whole object is an exact probability law on cells x intervals x
    labels.
    """
    mass = float(np.sum(mu.cell_masses))
    return layer_density(universe, m, mu, u, v, w) / mass / universe.label_count


# --- per-label loop versions of the exact universe analysis -------------------
#
# Straight transcriptions of the definitions: one layer at a time, labels
# 1 .. 2M in order, each layer's relocation applied by index assignment.


def _loop_sign(x: float) -> float:
    return 1.0 if x >= 0.0 else -1.0


def _loop_labels(universe, odd_only: bool = False):
    """(col_to, row_to, weights, sign) of labels 1 .. 2M in order."""
    step = 2 if odd_only else 1
    return [label_layer(universe, m) for m in range(1, universe.label_count + 1, step)]


def _loop_masses(mu) -> np.ndarray:
    return mu.cell_masses / mu.cell_masses.sum()


def loop_pair_expectation(universe, mu) -> float:
    """Average over labels of each layer's integral of A B: per cell, mass
    times the A and B averages over its strips, both carrying the layer sign,
    times the weight total sum_l p_l s_l^2."""
    size = mu.cell_masses.size
    acc = 0.0
    for _, _, weights, sign in _loop_labels(universe):
        a_avg = np.zeros(size)
        b_avg = np.zeros(size)
        a_avg[0:3] = [_loop_sign(mu.a[2]), _loop_sign(mu.a[1]), _loop_sign(mu.a[0])]
        b_avg[0:3] = [-_loop_sign(mu.b[2]), -_loop_sign(mu.b[1]), -_loop_sign(mu.b[0])]
        integral = (mu.cell_masses * a_avg * b_avg).sum() * sign * sign
        acc += float(integral * weights.sum())
    return acc / universe.label_count


def loop_station_pair_joint(universe, mu) -> np.ndarray:
    size = mu.cell_masses.size
    joint = np.zeros((size, size))
    for col_to, row_to, _, _ in _loop_labels(universe):
        np.add.at(joint, (col_to, row_to), _loop_masses(mu) / universe.label_count)
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
    for col_to, row_to, weights, sign in _loop_labels(universe, odd_only=drop_companions):
        to = col_to if side == "A" else row_to
        weight = masses[:, None, None] * weights[None, None, :]
        num[to] += sign * prof[:, :, None] * s_vals[None, None, :] * weight
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
    for col_to, row_to, weights, _ in labels:
        atom = np.outer(masses, weights)
        product = np.outer(atom.sum(axis=1), atom.sum(axis=0))
        out["tv_cond_indep"] = max(out["tv_cond_indep"], tv(atom, product))
        pu, pv, pu_ac = np.zeros(size), np.zeros(size), np.zeros(size)
        pu[col_to] = masses
        pv[row_to] = masses
        pu_ac[col_to] = masses_ac
        pair = np.zeros((size, size))
        pair[col_to, row_to] = masses
        out["cond_pair_dependence"] = min(out["cond_pair_dependence"], tv(pair, np.outer(pu, pv)))
        out["setting_shift"] = max(out["setting_shift"], tv(pu, pu_ac))
    all_weights = np.stack([weights for _, _, weights, _ in labels])
    mean_weights = all_weights.mean(axis=0)
    out["r_lambda_dependence"] = (
        0.5 * float(np.abs(all_weights - mean_weights).sum()) / len(labels)
    )
    triple = np.zeros((size, size, universe.interval_count))
    for col_to, row_to, weights, _ in labels:
        np.add.at(triple, (col_to, row_to), np.outer(masses, weights) / len(labels))
    out["factorization_defect"] = float(np.abs(triple - joint[:, :, None] * mean_weights).max())
    return out

