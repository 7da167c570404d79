"""Exact fractional Brownian motion synthesis and first-passage estimation.

The package samples fBm paths with exact finite-dimensional marginals via
circulant embedding, runs them in deterministic batches through the
closed-form reduction of affine drifted models, estimates Laplace
transforms of threshold hitting times (plain grid rule and a conditional
bridge correction) from the per-path arrays, and ships closed-form
reference curves for comparison.  run_simulation returns those arrays as
one mapping, hit times keyed by rule name, each indexed [H, path].  Every
layer takes the Hurst index, the horizon and the grid steps as plain
numbers, the fields of a SimulationJob.
"""

from .analysis import RegressionFit, linear_fit, rate_exponent
from .estimate import (
    NoHitsError,
    density_from_times,
    gap_estimate,
    laplace_from_times,
    truncated_argmax_moments,
)
from .fgn import (
    CHOLESKY_CAP,
    EmbeddingError,
    cholesky_fbm,
    circulant_spectrum,
    fgn_autocovariance,
    sample_fgn,
)
from .rng import GAUSSIAN_STREAM, UNIFORM_STREAM, substream
from .runner import RULES, MemoryBudgetError, SimulationJob, run_simulation
from .sde import PropagationError
from .theory import laplace_bm

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sampling
    "EmbeddingError",
    "fgn_autocovariance",
    "circulant_spectrum",
    "sample_fgn",
    "cholesky_fbm",
    "CHOLESKY_CAP",
    # rng
    "substream",
    "GAUSSIAN_STREAM",
    "UNIFORM_STREAM",
    # model reduction
    "PropagationError",
    # driver
    "SimulationJob",
    "RULES",
    "MemoryBudgetError",
    "run_simulation",
    # estimation
    "NoHitsError",
    "laplace_from_times",
    "gap_estimate",
    "density_from_times",
    "truncated_argmax_moments",
    # closed forms
    "laplace_bm",
    # analysis
    "RegressionFit",
    "linear_fit",
    "rate_exponent",
]
