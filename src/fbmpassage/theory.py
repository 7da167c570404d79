"""Closed-form reference.

The exact Brownian first-passage Laplace transform, used as the H = 1/2
reference.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["laplace_bm"]


def laplace_bm(lam: float, x0: float = 0.0, threshold: float = 1.0) -> float:
    """Laplace transform E[exp(-lam * tau)] of the Brownian passage time.

    For standard Brownian motion started at x0 below the threshold, the
    transform is exp(-(threshold - x0) * sqrt(2 * lam)).  It solves
    u'' = 2 * lam * u with u(threshold) = 1 and u(-inf) = 0.
    """
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be non-negative, got {lam}")
    if x0 > threshold:
        raise ValueError(f"start {x0} must not exceed threshold {threshold}")
    return math.exp(-(threshold - x0) * math.sqrt(2.0 * lam))

