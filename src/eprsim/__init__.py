"""Local hidden-variable EPR simulator.

Exact diagonal-cell measures built from quadratic B-splines, randomized
permuted layers with sign-flipped companions, Monte Carlo spin-pair
experiments reproducing E{A B} = -a.b, and Poisson-process emission
labelling with exact discrepancy measurement.
"""

__version__ = "0.1.0"

from .analysis import (
    DependenceReport,
    dependence_report,
    outcome_biases,
    pair_expectation,
)
from .config import ConfigError, load_config, parse_setting
from .emission import (
    DiscrepancyStats,
    GateResult,
    RateFit,
    detector_gate,
    discrepancy_stats,
    fit_rate,
    generate_trace,
    prefix_discrepancies,
    star_discrepancy,
)
from .layers import (
    LayerUniverse,
    build_universe,
    layer_count,
    load_universe,
    save_universe,
)
from .measure import (
    BaseMeasure,
    GapVariantMass,
    as_setting,
    build_measure,
    gap_variant,
    pair_integral,
    setting_from_angle,
    theta_hat,
    total_mass,
    validate_weights,
)
from .sampling import (
    ChshEstimate,
    CorrelationEstimate,
    chsh,
    run_experiment,
)
from .splines import (
    SplineSystem,
    approx_squared_diff_grid,
    basis_matrix,
    build_spline_system,
    clipped_weight_matrix,
    marsden_weight_matrix,
    squared_diff_defect_bound,
)
