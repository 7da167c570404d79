"""Least-squares fits for decay-rate studies.

The central question these fits answer: how fast does the gap between the
fractional and Brownian passage functionals close as the Hurst index
approaches 1/2 from above?  A linear fit of gap against (H - 1/2) measures
proportionality; a log-log fit measures the decay exponent.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegressionFit",
    "linear_fit",
    "rate_exponent",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares y = intercept + slope * x over n points.

    slope_se is the usual OLS standard error (zero when n == 2 leaves no
    residual freedom).
    """

    slope: float
    intercept: float
    r_squared: float
    n: int
    slope_se: float


def linear_fit(xs, ys) -> RegressionFit:
    """Least-squares line through (xs, ys).

    Requires at least two points with non-degenerate x spread.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError(f"x and y must be 1-d of equal length, got {x.shape} vs {y.shape}")
    n = len(x)
    if n < 2:
        raise ValueError(f"need at least two points, got {n}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("fit inputs must be finite")
    x_bar = float(x.sum() / n)
    y_bar = float(y.sum() / n)
    dx = x - x_bar
    sxx = float((dx * dx).sum())
    if sxx <= 0.0:
        raise ValueError("x values are degenerate (no spread); cannot fit a slope")
    slope = float((dx * (y - y_bar)).sum() / sxx)
    intercept = y_bar - slope * x_bar
    residuals = y - (intercept + slope * x)
    ss_res = float((residuals * residuals).sum())
    ss_tot = float(((y - y_bar) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    slope_se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else 0.0
    return RegressionFit(slope, intercept, r_squared, n, slope_se)


def rate_exponent(hurst, gaps, gap_ses=None) -> RegressionFit:
    """Log-log fit log(gap) = const + beta * log(H - 1/2).

    The slope beta estimates the decay exponent of the gap as H approaches
    1/2.  Gaps that are non-positive, or within two standard errors of zero
    when `gap_ses` is given, carry no log-scale signal and are dropped with
    a log note that names each dropped H by its shortest round-tripping repr.
    """
    h = np.asarray(hurst, dtype=float)
    g = np.asarray(gaps, dtype=float)
    if h.shape != g.shape:
        raise ValueError(f"H and gap arrays must match, got {h.shape} vs {g.shape}")
    if np.any(h <= 0.5):
        raise ValueError("rate fit requires every H strictly above 1/2")
    keep = g > 0.0
    if gap_ses is not None:
        ses = np.asarray(gap_ses, dtype=float)
        if ses.shape != g.shape:
            raise ValueError("gap_ses must match gaps in length")
        keep &= g >= 2.0 * ses
    if not keep.all():
        logger.warning(
            "rate fit dropped %d gap(s) at H=%s (non-positive or within 2 SE of zero)",
            int((~keep).sum()),
            "[" + ", ".join(repr(float(v)) for v in h[~keep]) + "]",
        )
    if keep.sum() < 2:
        raise ValueError("fewer than two usable gaps for the log-log rate fit")
    return linear_fit(np.log(h[keep] - 0.5), np.log(g[keep]))
