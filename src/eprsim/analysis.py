"""Closed-form expectations and dependence diagnostics over a layer universe.

Every law in the model is piecewise constant on unit cells times weight
intervals times labels, so expectations, marginals, and total-variation
distances are finite sums; nothing here samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LayerUniverse
from .measure import BaseMeasure, build_measure, pair_integral


def _normalized_masses(mu: BaseMeasure) -> np.ndarray:
    return mu.cell_masses / mu.cell_masses.sum()


def _relocation_histogram(to: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """hist[c, p, l]: weight of interval l summed over the pairs whose
    relocation `to` (a universe's `col_to` or `row_to`) moves cell position c
    to position p.  One bincount over M x S x L entries, interval-major so
    every temporary is built from long contiguous rows."""
    size, ell_count = to.shape[1], weights.shape[1]
    cells = (np.arange(size) * size + to).ravel()
    bins = cells + np.arange(ell_count)[:, None] * (size * size)
    shares = np.repeat(weights.T, size, axis=1)
    hist = np.bincount(bins.ravel(), shares.ravel(), minlength=ell_count * size * size)
    return hist.reshape(ell_count, size, size).transpose(1, 2, 0)


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
    k = "AB".index(side)  # outcome by original cell position and half
    hist = _relocation_histogram((universe.col_to, universe.row_to)[k], universe.weights)
    masses = _normalized_masses(mu)
    s_vals = np.where(np.arange(universe.interval_count) % 2, 1.0, -1.0)

    # kept labels per pair and their signs; a pair's labels share every bin,
    # so its contribution is the sum of their signs (0 for companions) times
    # one label's contribution
    signs = [1.0] if drop_companions else [1.0, -1.0]
    num = sum(signs) * np.einsum("ch,c,cpl->phl", mu.outcome[k], masses, hist) * s_vals
    den = len(signs) * np.einsum("c,cpl->pl", masses, hist)
    den = np.repeat(den[:, None, :], 2, axis=1)
    if by == "source":
        num = num.sum(axis=(0, 1), keepdims=True)
        den = den.sum(axis=(0, 1), keepdims=True)
    ratios = np.zeros_like(num)
    occupied = den > 0.0
    ratios[occupied] = np.abs(num[occupied]) / den[occupied]
    return float(ratios.max())


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
        return {
            "tv_joint_vs_product": self.tv_joint_vs_product,
            "tv_cond_indep": self.tv_cond_indep,
            "cond_pair_dependence": self.cond_pair_dependence,
            "setting_shift": self.setting_shift,
            "marginal_uniformity": self.marginal_uniformity,
            "r_lambda_dependence": self.r_lambda_dependence,
            "factorization_defect": self.factorization_defect,
        }


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
    # against the product of its two conditional marginals; companions share it
    # (pair, interval, cell) order keeps the long cell axis innermost
    atom = universe.weights[:, :, None] * masses
    product = atom.sum(axis=1)[:, None, :] * atom.sum(axis=2)[:, :, None]
    tv_cond_indep = float(0.5 * np.abs(atom - product).sum(axis=(1, 2)).max())

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

    # (ii*): is the source parameter independent of the station pair?
    # interval-major, like `_relocation_histogram`
    ell_count = universe.interval_count
    bins = _cell_pair_bins(universe).ravel() + np.arange(ell_count)[:, None] * (size * size)
    shares = atom.transpose(1, 0, 2) * (1.0 / universe.pair_count)
    triple = np.bincount(bins.ravel(), shares.ravel(), minlength=ell_count * size * size)
    triple = triple.reshape(ell_count, size, size).transpose(1, 2, 0)
    factorization_defect = float(
        np.abs(triple - joint[:, :, None] * mean_weights[None, None, :]).max()
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
