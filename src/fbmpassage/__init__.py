"""Exact fractional Brownian motion synthesis and first-passage estimation.

The package samples fBm paths with exact finite-dimensional marginals via
circulant embedding, estimates Laplace transforms of threshold hitting
times (plain grid rule and a conditional bridge correction), reduces
state-dependent diffusions to unit noise with a Lamperti change of
variable, and ships closed-form reference curves for comparison.
"""

from .analysis import RegressionFit, assemble_gap_table, linear_fit, pivot_wide, rate_exponent
from .estimate import (
    DensityHistogram,
    LaplaceEstimate,
    NoHitsError,
    SupremumStats,
    conjecture_moment,
    conjecture_moments,
    density_from_times,
    density_histogram,
    gap_estimate,
    laplace_estimator,
    laplace_from_times,
    supremum_stats,
    tail_exponent,
    tail_exponent_from_times,
)
from .fgn import (
    CHOLESKY_CAP,
    EmbeddingError,
    FbmPath,
    FgnBlock,
    Hurst,
    TimeGrid,
    cholesky_fbm,
    circulant_spectrum,
    fbm_covariance,
    fbm_path,
    fgn_autocovariance,
    sample_fgn,
)
from .passage import PassageOutcome, bridge_crossing_prob, first_passage, first_passage_bridge
from .rng import GAUSSIAN_STREAM, UNIFORM_STREAM, substream
from .runner import (
    MemoryBudgetError,
    SimulationJob,
    SimulationResult,
    marginal_values,
    passage_times,
    path_extremes,
    run_simulation,
)
from .sde import (
    Coefficients,
    EllipticityError,
    LampertiMap,
    PropagationError,
    XPath,
    build_lamperti,
    diffusion_from_name,
    drift_from_name,
    euler_solve,
    inverse_path,
    threshold_transform,
)
from .theory import (
    GapEnvelopeParams,
    decay_scale,
    density_envelope,
    distance_scale,
    gap_envelope,
    laplace_bm,
    marginal_gap_envelope,
    variance_term_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sampling
    "Hurst",
    "TimeGrid",
    "FgnBlock",
    "FbmPath",
    "EmbeddingError",
    "fbm_covariance",
    "fgn_autocovariance",
    "circulant_spectrum",
    "sample_fgn",
    "fbm_path",
    "cholesky_fbm",
    "CHOLESKY_CAP",
    # rng
    "substream",
    "GAUSSIAN_STREAM",
    "UNIFORM_STREAM",
    # state reduction
    "Coefficients",
    "LampertiMap",
    "XPath",
    "EllipticityError",
    "PropagationError",
    "build_lamperti",
    "threshold_transform",
    "euler_solve",
    "inverse_path",
    "drift_from_name",
    "diffusion_from_name",
    # passage
    "PassageOutcome",
    "first_passage",
    "first_passage_bridge",
    "bridge_crossing_prob",
    # driver
    "SimulationJob",
    "SimulationResult",
    "MemoryBudgetError",
    "run_simulation",
    "passage_times",
    "marginal_values",
    "path_extremes",
    # estimation
    "LaplaceEstimate",
    "NoHitsError",
    "DensityHistogram",
    "SupremumStats",
    "laplace_estimator",
    "laplace_from_times",
    "gap_estimate",
    "density_histogram",
    "density_from_times",
    "supremum_stats",
    "conjecture_moment",
    "conjecture_moments",
    "tail_exponent",
    "tail_exponent_from_times",
    # closed forms
    "laplace_bm",
    "distance_scale",
    "decay_scale",
    "GapEnvelopeParams",
    "gap_envelope",
    "variance_term_envelope",
    "marginal_gap_envelope",
    "density_envelope",
    # analysis
    "RegressionFit",
    "linear_fit",
    "rate_exponent",
    "assemble_gap_table",
    "pivot_wide",
]
