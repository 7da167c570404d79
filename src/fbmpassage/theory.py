"""Closed-form references.

The exact Brownian first-passage Laplace transform used as the H = 1/2
reference, and the Gaussian-type envelope of the marginal density, which is
the exact density for driftless unit-diffusion runs.
"""

from __future__ import annotations

import math

import numpy as np

from .fgn import Hurst

__all__ = ["laplace_bm", "density_envelope"]


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


def density_envelope(
    t: float,
    x,
    x0: float = 0.0,
    h: Hurst = Hurst(0.5),
    c: float = 1.0,
    sigma_sup: float = 1.0,
):
    """Gaussian-type upper envelope for the time-t marginal density.

    exp(c * t) / sqrt(2 * pi * t^{2H}) * exp(-(x - x0)^2 / (2 * sigma_sup^2 * t^{2H})).
    With c = 0 and sigma_sup = 1 this is the exact N(x0, t^{2H}) density, so
    for driftless unit-diffusion runs the envelope is attained.  Accepts a
    scalar or an array of evaluation points x.
    """
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError(f"time must be positive, got {t}")
    if c < 0.0:
        raise ValueError(f"growth constant must be non-negative, got {c}")
    if sigma_sup <= 0.0:
        raise ValueError(f"sigma_sup must be positive, got {sigma_sup}")
    var = sigma_sup**2 * t ** (2.0 * h.value)
    x = np.asarray(x, dtype=float)
    out = math.exp(c * t) / np.sqrt(2.0 * math.pi * t ** (2.0 * h.value)) * np.exp(
        -((x - x0) ** 2) / (2.0 * var)
    )
    return out if out.ndim else float(out)
