"""Closed-form expectations and dependence diagnostics over a layer universe.

Every law in the model is piecewise constant on unit cells times weight
intervals times labels, so expectations, marginals, and total-variation
distances are finite sums; nothing here samples.  The sums over the M
companion pairs use arrays of M x (3n+12) entries, never M x (3n+12) x L:
a relocation is a permutation, so one scatter puts each original cell's law
at the position the cell moves to and one matmul with the (M, L) weights
sums the pairs, while the (ii*) law is binned once per interval.
`outcome_biases` makes that pass once per station side and reads both the
intact and the witness (companions dropped) bias from its sums.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .layers import LayerUniverse
from .measure import BaseMeasure, build_measure, pair_integral


def _normalized_masses(mu: BaseMeasure) -> np.ndarray:
    return mu.cell_masses / mu.cell_masses.sum()


def _cell_pair_bins(universe: LayerUniverse) -> np.ndarray:
    """Flat (column, row) bin of every ensemble, one row per pair; a pair's
    two labels share these bins, so each pair is binned once at twice a
    label's share."""
    size = universe.col_to.shape[1]
    return universe.col_to * size + universe.row_to


def pair_expectation(universe: LayerUniverse, a, b) -> float:
    """E{A B} = average over labels of the exact per-layer integral = -a.b.

    Each layer integrates to the base integral times its weight total."""
    mu = build_measure(a, b, universe.n)
    return pair_integral(mu) * float(universe.weights.sum(axis=1).mean())


def station_pair_joint(universe: LayerUniverse, mu: BaseMeasure) -> np.ndarray:
    """Exact joint cell law of the two station parameters, mixed over labels
    and weight intervals: shape (cells, cells) over (column, row)."""
    size = universe.col_to.shape[1]
    bins = _cell_pair_bins(universe)
    shares = np.broadcast_to(_normalized_masses(mu) * (1.0 / universe.pair_count), bins.shape)
    joint = np.bincount(bins.ravel(), shares.ravel(), minlength=size * size)
    return joint.reshape(size, size)


def _side_biases(universe: LayerUniverse, mu: BaseMeasure, k: int, by: str, drops):
    """Yield side "AB"[k]'s bias for each `drop_companions` in `drops`, all
    from one pass.  Row p of `spread` holds both halves' outcome times mass at
    the positions pair p moves the cells to, summed by one matmul with the
    (M, L) weights (one per half may round otherwise); `moved` then holds the
    mass.  Each is summed before the next is made: one M x 2S array at most."""
    masses = _normalized_masses(mu)
    to = (universe.col_to, universe.row_to)[k]
    pairs, size = to.shape
    rows = np.arange(pairs)[:, None]
    spread = np.empty((pairs, 2 * size))
    for h in (0, 1):
        spread[:, h * size : (h + 1) * size][rows, to] = mu.outcome[k, :, h] * masses
    halves = spread.T @ universe.weights
    del spread
    moved = np.empty((pairs, size))
    moved[rows, to] = masses
    mass_sums = moved.T @ universe.weights
    s_vals = np.where(np.arange(universe.interval_count) % 2, 1.0, -1.0)
    for drop_companions in drops:
        # kept labels per pair and their signs; a pair's labels share every bin,
        # so its contribution is the sum of their signs (0 for companions) times
        # one label's contribution.  Bins are (half, position) rows by interval.
        signs = [1.0] if drop_companions else [1.0, -1.0]
        num = sum(signs) * halves * s_vals
        den = np.tile(len(signs) * mass_sums, (2, 1))
        if by == "source":
            num = num.sum(axis=0, keepdims=True)
            den = den.sum(axis=0, keepdims=True)
        ratios = np.zeros_like(num)
        occupied = den > 0.0
        ratios[occupied] = np.abs(num[occupied]) / den[occupied]
        yield float(ratios.max())


def conditional_outcome_bias(
    universe: LayerUniverse,
    a,
    b,
    side: str = "A",
    drop_companions: bool = False,
    by: str = "station",
) -> float:
    """Largest conditional expectation of one outcome given local parameters.

    For side "A" the conditioning bins are (station-1 cell, half-cell,
    weight interval); integrating the station parameter out (`by="source"`)
    bins on the weight interval alone.  With intact companion pairs every
    bin cancels exactly; `drop_companions` keeps only the odd labels to
    exhibit the mechanism.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if by not in ("station", "source"):
        raise ValueError("by must be 'station' or 'source'")
    mu = build_measure(a, b, universe.n)
    return next(_side_biases(universe, mu, "AB".index(side), by, [drop_companions]))


def outcome_biases(universe: LayerUniverse, a, b) -> dict:
    """{"A": (intact, witness), "B": (intact, witness)}: each side's
    `conditional_outcome_bias` by station with companions intact and
    dropped, both from one pass over the pairs."""
    mu = build_measure(a, b, universe.n)
    sides = [tuple(_side_biases(universe, mu, k, "station", (False, True))) for k in (0, 1)]
    return dict(zip("AB", sides))


@dataclass(frozen=True)
class DependenceReport:
    """Exact dependence diagnostics for one universe and settings (a, b, c).

    All entries are total-variation distances (or max cell defects) in
    [0, 1].  `tv_joint_vs_product` and `marginal_uniformity` shrink as the
    number of sampled pairs grows; `tv_cond_indep` is zero by construction;
    `cond_pair_dependence` and `setting_shift` are positive for generic
    settings; `r_lambda_dependence` and `factorization_defect` vanish
    exactly when the weight vectors are tied across layers.
    """

    tv_joint_vs_product: float
    tv_cond_indep: float
    cond_pair_dependence: float
    setting_shift: float
    marginal_uniformity: float
    r_lambda_dependence: float
    factorization_defect: float

    def as_dict(self) -> dict:
        return asdict(self)


def _tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def dependence_report(universe: LayerUniverse, a, b, c) -> DependenceReport:
    """Compute all dependence diagnostics by exact cell summation."""
    mu_ab = build_measure(a, b, universe.n)
    mu_ac = build_measure(a, c, universe.n)
    if np.allclose(mu_ab.b, mu_ac.b, atol=1e-15):
        raise ValueError("alternate setting c must differ from b")
    size = universe.col_to.shape[1]
    masses = _normalized_masses(mu_ab)
    masses_ac = _normalized_masses(mu_ac)

    joint = station_pair_joint(universe, mu_ab)
    marg_u = joint.sum(axis=1)
    marg_v = joint.sum(axis=0)
    tv_joint_vs_product = _tv(joint.ravel(), np.outer(marg_u, marg_v).ravel())

    uniform = np.full(size, 1.0 / size)
    marginal_uniformity = max(_tv(marg_u, uniform), _tv(marg_v, uniform))

    # (ii): conditional joint over ((u,v) atom, interval) given the label,
    # against the product of its two conditional marginals; companions share
    # it.  The atom w_l m_c has marginals W m_c and w_l sum(m) (W = sum(w_l)),
    # so the distance is W sum(m) |1 - W sum(m)| / 2 in closed form.
    mass_weight = universe.weights.sum(axis=1) * masses.sum()
    tv_cond_indep = float((0.5 * mass_weight * np.abs(1.0 - mass_weight)).max())

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

    # (vi): label vs weight interval; companions repeat their pair's weights
    mean_weights = universe.weights.mean(axis=0)
    r_lambda_dependence = float(
        0.5 * np.abs(universe.weights - mean_weights).sum() / universe.pair_count
    )

    # (ii*): is the source parameter independent of the station pair?  One
    # (column, row) law per interval, each binned over the M x S pair cells
    bins = _cell_pair_bins(universe).ravel()
    factorization_defect = 0.0
    for ell, mean_weight in enumerate(mean_weights):
        shares = universe.weights[:, ell, None] * masses * (1.0 / universe.pair_count)
        layer = np.bincount(bins, shares.ravel(), minlength=size * size).reshape(size, size)
        factorization_defect = max(
            factorization_defect, float(np.abs(layer - joint * mean_weight).max())
        )

    return DependenceReport(
        tv_joint_vs_product=tv_joint_vs_product,
        tv_cond_indep=tv_cond_indep,
        cond_pair_dependence=cond_pair_dependence,
        setting_shift=setting_shift,
        marginal_uniformity=marginal_uniformity,
        r_lambda_dependence=r_lambda_dependence,
        factorization_defect=factorization_defect,
    )
