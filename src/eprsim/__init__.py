"""Local hidden-variable EPR simulator.

Exact diagonal-cell measures built from quadratic B-splines, randomized
permuted layers with sign-flipped companions, Monte Carlo spin-pair
experiments reproducing E{A B} = -a.b, and Poisson-process emission
labelling with exact discrepancy measurement.
"""

__version__ = "0.1.0"

from .emission import fit_rate, generate_trace, prefix_discrepancies
from .measure import setting_from_angle
from .sampling import chsh, run_experiment
