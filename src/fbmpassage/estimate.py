"""Monte Carlo functionals of per-path arrays.

Estimators here reduce the runner's per-path arrays (hit times, suprema,
argmax times) to plain numbers: a Laplace transform and its standard
error, the gap between the transforms of two hit-time arrays, a hit-time
histogram as (edges, mass) and truncated argmax moments as
(r, moment, std_error) triples.  Censored paths contribute zero to Laplace
functionals, which biases every estimate downward by at most
exp(-lambda * horizon); internally a censored path carries +inf as its hit
time so exp(-lambda * inf) = 0 falls out of the same vectorized expression.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NoHitsError",
    "laplace_from_times",
    "gap_estimate",
    "density_from_times",
    "truncated_argmax_moments",
]


class NoHitsError(ValueError):
    """Raised when an estimator needs hits and every path was censored."""


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean of `values` and its standard error, both sums taken with math.fsum.

    The standard error is 0.0 for a single value.
    """
    m = len(values)
    s1 = math.fsum(values)
    s2 = math.fsum(values * values)
    var = max(0.0, (s2 - s1 * s1 / m) / (m - 1)) if m > 1 else 0.0
    return s1 / m, math.sqrt(var / m)


def _weights(times: np.ndarray, lam: float) -> np.ndarray:
    """exp(-lam * tau) per path of a non-empty hit-time array, for a finite lam > 0."""
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be positive, got {lam}")
    if len(times) < 1:
        raise ValueError("cannot estimate from an empty sample")
    return np.exp(-lam * times)


def laplace_from_times(times: np.ndarray, lam: float) -> tuple[float, float]:
    """Mean of exp(-lam * tau) over a hit-time array, and its standard error.

    A censored path (+inf) contributes zero, so the value underestimates
    the true transform by at most exp(-lam * horizon).  The value lies in
    [0, 1] and the standard error is non-negative.
    """
    return _mean_and_se(_weights(times, lam))


def gap_estimate(times: np.ndarray, ref_times: np.ndarray, lam: float) -> tuple[float, float]:
    """Transform gap ref - value at lam over the same paths: mean and SE of the per-path differences."""
    if len(times) != len(ref_times):
        raise ValueError(f"a gap needs the same paths on both sides, got {len(times)} and {len(ref_times)}")
    return _mean_and_se(_weights(ref_times, lam) - _weights(times, lam))


# ---------------------------------------------------------------------------
# hit-time density
# ---------------------------------------------------------------------------

def density_from_times(times: np.ndarray, horizon: float, bins: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Histogram (edges, mass) over [0, min(horizon, 10)] from a hit-time array (+inf marks censoring).

    mass[i] is a density height normalized against the full sample count:
    sum(mass * widths) equals the fraction of samples that hit inside the
    window, so censored paths (and hits beyond the window) flatten the
    histogram instead of renormalizing it.
    """
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    m = len(times)
    if m < 1:
        raise ValueError("cannot histogram an empty sample")
    finite = np.isfinite(times)
    if not finite.any():
        raise NoHitsError("every path was censored; no hit times to histogram")
    edges = np.linspace(0.0, min(horizon, 10.0), bins + 1)
    counts, _ = np.histogram(times[finite], bins=edges)
    return edges, counts / (m * np.diff(edges))


# ---------------------------------------------------------------------------
# truncated argmax moments
# ---------------------------------------------------------------------------

def truncated_argmax_moments(
    sups: np.ndarray, arg_times: np.ndarray, r_values, exponent: float, eta: float
) -> list[tuple[float, float, float]]:
    """Moments E[1{sup <= 1 + eta} * argmax^exponent] from per-path extremes.

    Column j of `sups` and `arg_times` holds the supremum and first-argmax
    time over the window r_values[j].  Returns (r, moment, std_error) per
    window, in order.
    """
    out = []
    for j, r in enumerate(r_values):
        contrib = np.where(sups[:, j] <= 1.0 + eta, arg_times[:, j] ** exponent, 0.0)
        out.append((r, *_mean_and_se(contrib)))
    return out

