"""Exact fractional Brownian motion synthesis and first-passage estimation.

The package samples fBm paths with exact finite-dimensional marginals via
circulant embedding, runs them in deterministic batches through the
closed-form reduction of affine drifted models, estimates Laplace
transforms of threshold hitting times (the plain grid rule and the sampled
Brownian-bridge crossing rule) from the per-path arrays, and ships closed-form
reference curves for comparison.  run_simulation returns those arrays as
one mapping, hit times keyed by rule name, each indexed [H, path].  Every
layer takes the Hurst index, the horizon and the grid steps as plain
numbers, the fields of a SimulationJob.

`import fbmpassage` loads no submodule, and so no numpy: each exported
name imports its module on first use (PEP 562).  The package leaves BLAS
threading to the program that imports it; the command line caps it in
its own process (see `cli`).
"""

import importlib

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    # sampling
    "EmbeddingError": "fgn",
    "fgn_autocovariance": "fgn",
    "circulant_spectrum": "fgn",
    # rng
    "substream": "rng",
    "GAUSSIAN_STREAM": "rng",
    "UNIFORM_STREAM": "rng",
    # model reduction
    "PropagationError": "sde",
    # driver
    "SimulationJob": "runner",
    "RULES": "runner",
    "MemoryBudgetError": "runner",
    "run_simulation": "runner",
    # estimation
    "NoHitsError": "estimate",
    "laplace_from_times": "estimate",
    "gap_estimate": "estimate",
    "density_from_times": "estimate",
    "truncated_argmax_moments": "estimate",
    # closed forms
    "laplace_bm": "theory",
    # analysis
    "RegressionFit": "analysis",
    "linear_fit": "analysis",
    "rate_exponent": "analysis",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
