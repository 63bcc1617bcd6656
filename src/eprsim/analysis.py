"""Closed-form expectations and dependence diagnostics over a layer universe.

Every law in the model is piecewise constant on unit cells times weight
intervals times labels, so expectations, marginals, and total-variation
distances are finite sums; nothing here samples.  A relocation is a
permutation, so each sum over the M companion pairs scatters the cells'
shares to the positions the pairs move them to.  A cell of zero mass adds
exact zeros there, so the sums take only the K positive-mass cells (K <= 12
of the S = 3n+12): the binned laws scatter-add M x K shares into their
table a block of pairs at a time, in the order `np.bincount` would sum
them, and the (ii*) law is binned once per interval.  The outcome sums put
each sign group's positive-mass cells into one reused BLOCK_ROWS x S array
at the positions the pairs move them to, and a matmul with those pairs'
weights adds them up, a block of pairs at a time; nothing is M x S, or
M x S x L.  Every pass over the pairs works in blocks like these, so a
call holds the universe plus scratch of a fixed size, and the (M, K) bins.
Positions are uint16: every flat bin is formed in `intp`, since
column * S + row passes 2**16 from n = 82.
`outcome_biases` is the one bias computation: per station side it sums the
odd labels' mass of +1 and of -1 outcomes per bin, P and Q, and reads from
them the intact bias (exactly 0) and the witness with companions dropped,
max |P - Q| / (P + Q), which rounding cannot lift above 1.
"""

from __future__ import annotations

import numpy as np

from .layers import BLOCK_ROWS, LayerUniverse
from .measure import BaseMeasure, pair_integral


def _normalized_masses(mu: BaseMeasure) -> np.ndarray:
    return mu.cell_masses / mu.cell_masses.sum()


def _check_order(universe: LayerUniverse, *measures: BaseMeasure) -> None:
    for mu in measures:
        if mu.n != universe.n:
            raise ValueError(f"a measure of order n = {mu.n} on a universe of n = {universe.n}")


# pairs times cells per block of `_bin_pairs`: a block's float64 shares
# stay near 128 KiB
BLOCK_SHARES = 1 << 14


def _cell_pair_bins(universe: LayerUniverse, pos: np.ndarray) -> np.ndarray:
    """(M, K) flat (column, row) bins of the ensembles of the cells `pos`,
    one row per pair; a pair's two labels share these bins, so each pair is
    binned once at twice a label's share."""
    bins = universe.col_to[:, pos].astype(np.intp)
    bins *= universe.col_to.shape[1]
    bins += universe.row_to[:, pos]
    return bins


def _bin_pairs(bins: np.ndarray, shares: np.ndarray, size: int, scale: np.ndarray) -> np.ndarray:
    """(size, size) table of shares[j] * scale[p] / M summed into bin
    bins[p, j], pair after pair in the order `np.bincount` of the flat bins
    sums them, so bit for bit its table; a block of pairs at a time."""
    pairs, count = bins.shape
    rows = min(pairs, max(1, BLOCK_SHARES // count))
    part = np.empty((rows, count))
    table = np.zeros(size * size)
    for lo in range(0, pairs, rows):
        hi = min(pairs, lo + rows)
        block = part[: hi - lo]
        np.multiply(scale[lo:hi, None], shares, out=block)
        block *= 1.0 / pairs
        np.add.at(table, bins[lo:hi].ravel(), block.ravel())
    return table.reshape(size, size)


def pair_expectation(universe: LayerUniverse, mu: BaseMeasure) -> float:
    """E{A B} = average over labels of the exact per-layer integral = -a.b.

    Each layer integrates to the base integral times its weight total."""
    _check_order(universe, mu)
    return pair_integral(mu) * (float(universe.weights.sum()) / universe.pair_count)


def _outcome_mass(universe: LayerUniverse, mu: BaseMeasure, k: int):
    """P, Q of shape (2, S, L) for station side "AB"[k]: the odd labels' mass
    per (half, position, interval) of the cells whose outcome there is +1
    (P) and -1 (Q).  A relocation is a permutation, so the positive-mass
    cells that share both halves' outcomes are scattered to the positions
    each pair moves them to.  BLOCK_ROWS pairs at a time, group after group,
    they fill one reused block, summed over its pairs by a matmul with their
    (rows, L) weights; each group's sums go to P or Q half by half.  A group
    of zero-mass cells only would add zeros: none is made."""
    masses = _normalized_masses(mu)
    held = masses != 0.0
    to = (universe.col_to, universe.row_to)[k]
    pairs, size = to.shape
    plus = mu.outcome[k] > 0  # (S, 2): is the outcome +1 on each half
    groups = [
        (signs, np.flatnonzero(held & (plus == signs).all(axis=1)))
        for signs in np.unique(plus[held], axis=0)
    ]
    rows = min(pairs, BLOCK_ROWS)
    index = np.arange(rows)[:, None]
    moved = np.empty((rows, size))
    sums = np.zeros((2, 2, size, universe.interval_count))  # (P or Q, half, ...)
    for lo in range(0, pairs, rows):
        hi = min(pairs, lo + rows)
        block = moved[: hi - lo]
        for signs, cells in groups:
            block.fill(0.0)
            block[index[: hi - lo], to[lo:hi, cells]] = masses[cells]
            group = block.T @ universe.weights[lo:hi]
            for h in (0, 1):
                sums[0 if signs[h] else 1, h] += group
    return sums[0], sums[1]


def _max_ratio(num: np.ndarray, den: np.ndarray) -> float:
    ratios = np.zeros_like(num)
    occupied = den > 0.0
    ratios[occupied] = np.abs(num[occupied]) / den[occupied]
    return float(ratios.max())


def outcome_biases(universe: LayerUniverse, mu: BaseMeasure) -> dict:
    """{"A": (intact, witness), "B": (intact, witness)}: each side's largest
    conditional expectation of its outcome given the station-side
    parameters, binned by (station cell, half-cell, weight interval), with
    companion pairs intact and with the companions dropped.

    A pair's two labels share every bin, so the odd labels' sums P, Q
    (`_outcome_mass`) give both.  The witness is max |P - Q| / (P + Q) over
    the occupied bins: for P, Q >= 0 rounding keeps |P - Q| <= max(P, Q) <=
    P + Q, so it never exceeds 1, and a bin of one outcome sign reads exactly
    1.0.  The intact numerator is the pair's sign sum, 0, times the odd
    label's, so the intact bias is exactly 0.0: the companions cancel every
    bin."""
    _check_order(universe, mu)
    biases = {}
    for k, side in enumerate("AB"):
        plus, minus = _outcome_mass(universe, mu, k)
        diff, total = plus - minus, plus + minus
        biases[side] = (_max_ratio(0.0 * diff, 2.0 * total), _max_ratio(diff, total))
    return biases


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def dependence_report(universe: LayerUniverse, mu_ab: BaseMeasure, mu_ac: BaseMeasure) -> dict:
    """Exact dependence diagnostics for one universe and the measures of
    settings (a, b) and (a, c), by exact cell summation, keyed by name.

    All entries are total-variation distances (or max cell defects) in
    [0, 1].  `tv_joint_vs_product` and `marginal_uniformity` shrink as the
    number of sampled pairs grows; `tv_cond_indep` is zero by construction;
    `cond_pair_dependence` and `setting_shift` are positive for generic
    settings; `r_lambda_dependence` and `factorization_defect` vanish
    exactly when the weight vectors are tied across layers.
    """
    _check_order(universe, mu_ab, mu_ac)
    if not np.array_equal(mu_ac.a, mu_ab.a):
        raise ValueError("both measures must share setting a")
    if np.array_equal(mu_ab.b, mu_ac.b):
        raise ValueError("alternate setting c must differ from b")
    size = universe.col_to.shape[1]
    masses = _normalized_masses(mu_ab)
    masses_ac = _normalized_masses(mu_ac)

    pos = np.flatnonzero(masses)
    bins, shares = _cell_pair_bins(universe, pos), masses[pos]
    joint = _bin_pairs(bins, shares, size, np.broadcast_to(1.0, universe.pair_count))
    marg_u = joint.sum(axis=1)
    marg_v = joint.sum(axis=0)
    tv_joint_vs_product = _tv(joint.ravel(), np.outer(marg_u, marg_v).ravel())

    uniform = np.full(size, 1.0 / size)
    marginal_uniformity = max(_tv(marg_u, uniform), _tv(marg_v, uniform))

    # (v) and (vii): a relocation moves the conditional masses and both
    # product marginals together, so each distance is the same on every
    # label; evaluate it on the unpermuted layout
    # (v): conditional cell-pair law vs product of conditional marginals
    on_diag = masses * masses
    cond_pair_dependence = 0.5 * float(
        np.abs(masses - on_diag).sum() + np.outer(masses, masses).sum() - on_diag.sum()
    )
    # (vii): conditional station-1 marginal under (a, b) vs (a, c)
    setting_shift = _tv(masses, masses_ac)

    # (vi): label vs weight interval; companions repeat their pair's weights.
    # (ii): conditional joint over ((u,v) atom, interval) given the label,
    # against the product of its two conditional marginals; companions share
    # it.  The atom w_l m_c has marginals W m_c and w_l sum(m) (W = sum(w_l)),
    # so the distance is W sum(m) |1 - W sum(m)| / 2 in closed form.  Both
    # take BLOCK_ROWS pairs at a time, |weights - mean| in one reused block
    weights = universe.weights
    mean_weights = weights.mean(axis=0)
    spread = np.empty((min(len(weights), BLOCK_ROWS), weights.shape[1]))
    spread_sum = tv_cond_indep = 0.0
    for lo in range(0, len(weights), BLOCK_ROWS):
        rows = weights[lo : lo + BLOCK_ROWS]
        mass_weight = rows.sum(axis=1) * masses.sum()
        cond_indep = (0.5 * mass_weight * np.abs(1.0 - mass_weight)).max()
        tv_cond_indep = max(tv_cond_indep, float(cond_indep))
        block = np.subtract(rows, mean_weights, out=spread[: len(rows)])
        spread_sum += float(np.abs(block, out=block).sum())
    r_lambda_dependence = 0.5 * spread_sum / len(weights)

    # (ii*): is the source parameter independent of the station pair?  One
    # (column, row) law per interval, each binned over the M x K pair cells
    factorization_defect = 0.0
    for ell, mean_weight in enumerate(mean_weights):
        layer = _bin_pairs(bins, shares, size, weights[:, ell])
        factorization_defect = max(
            factorization_defect, float(np.abs(layer - joint * mean_weight).max())
        )

    return {
        "tv_joint_vs_product": tv_joint_vs_product,
        "tv_cond_indep": tv_cond_indep,
        "cond_pair_dependence": cond_pair_dependence,
        "setting_shift": setting_shift,
        "marginal_uniformity": marginal_uniformity,
        "r_lambda_dependence": r_lambda_dependence,
        "factorization_defect": factorization_defect,
    }
