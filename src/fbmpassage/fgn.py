"""Exact synthesis of fractional Gaussian noise and fractional Brownian motion.

The sampler embeds the stationary increment covariance in a circulant matrix
that the FFT diagonalizes (Davies-Harte construction).  Eigenvalues are the
discrete Fourier transform of the wrapped autocovariance row, and one complex
FFT of white noise yields two independent increment blocks, so the method is
exact in distribution at every grid size.  Every entry point takes the Hurst
index h, the horizon and the grid's steps as plain numbers, the fields of a
SimulationJob, and checks them; the mesh is horizon / steps.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fft  # numpy imports its fft module on first use otherwise

__all__ = [
    "EIGENVALUE_TOL",
    "EmbeddingError",
    "fgn_autocovariance",
    "circulant_spectrum",
]

# Relative tolerance for the eigenvalue clamp: entries in [-tol * max, 0)
# are rounded up to zero, anything lower is a hard failure.
EIGENVALUE_TOL = 1e-12


class EmbeddingError(RuntimeError):
    """Raised when the circulant embedding is not positive semi-definite."""


# ---------------------------------------------------------------------------
# covariance structure
# ---------------------------------------------------------------------------

def fgn_autocovariance(h: float, lag: int | np.ndarray, step: float) -> float | np.ndarray:
    """Autocovariance of the increment sequence at a lag, or elementwise at an array of lags.

    gamma(k) = step^{2H} / 2 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}), for a Hurst index h
    in (0, 1).  np.power, not numpy's scalar ** (the C library's pow), gives a lone lag
    the bits it has in an array.
    """
    if not (np.isfinite(h) and 0.0 < h < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1), got {h}")
    k = np.asarray(lag, dtype=float)
    if (k < 0.0).any():
        raise ValueError(f"lag must be non-negative, got {lag}")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive, got {step}")
    two_h = 2.0 * h
    core = np.power(np.abs(k + 1.0), two_h) - 2.0 * np.power(k, two_h) + np.power(np.abs(k - 1.0), two_h)
    return 0.5 * step**two_h * core


def _is_int(value) -> bool:
    """True for a Python or numpy integer, and False for a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def circulant_spectrum(h: float, horizon: float, steps: int) -> np.ndarray:
    """Eigenvalues of the circulant embedding of the increment covariance.

    The wrapped row is [gamma(0), .., gamma(N-1), gamma(N), gamma(N-1), .., gamma(1)]
    of length 2N, with mesh horizon / N; its DFT is real and must be non-negative
    for exact sampling.
    Entries within EIGENVALUE_TOL * max of zero (from roundoff) are clamped to
    zero; genuinely negative entries raise EmbeddingError.

    Args:
        h: Hurst index, in (0, 1).
        horizon: length of the time interval [0, horizon], finite and positive.
        steps: grid intervals N, a power of two (FFT-friendly sizes keep the
            transform exact and fast; other sizes are rejected).

    Returns:
        Vector of 2N non-negative eigenvalues.
    """
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not (_is_int(steps) and steps >= 1):
        raise ValueError(f"steps must be a positive integer, got {steps}")
    if steps & (steps - 1):
        raise ValueError(f"steps must be a power of two for the circulant sampler, got {steps}")
    gamma = fgn_autocovariance(h, np.arange(steps + 1), horizon / steps)
    eigs = fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    lam_max = float(eigs.max())
    floor = -EIGENVALUE_TOL * lam_max
    lam_min = float(eigs.min())
    if lam_min < floor:
        raise EmbeddingError(
            f"circulant embedding failed for H={h}, N={steps}: "
            f"eigenvalue {lam_min:.3e} below tolerance {floor:.3e}"
        )
    if lam_min < 0.0:
        eigs = np.where(eigs < 0.0, 0.0, eigs)
    return eigs


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _complex_noise(rng: np.random.Generator, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """Standard complex white noise u + iv of length m from 2m normals.

    The real parts are drawn first, then the imaginary parts; this layout
    is part of the reproducibility contract.  `out`, if given, receives
    the noise and is returned.
    """
    noise = np.empty(m, dtype=complex) if out is None else out
    noise.real = rng.standard_normal(m)
    noise.imag = rng.standard_normal(m)
    return noise


def _pair_fft(scale: np.ndarray, noise: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """FFT(scale * noise) along the last axis, with scale = sqrt(spectrum / 2N).

    `noise` is one pair's 2N entries or a (pairs, 2N) block of them, and a
    block is transformed in one call, row by row, with the same bits as one
    call per row.  In each row of the result the first N real parts and the
    first N imaginary parts are the increments of the pair's two paths.
    `out`, if given, has the shape of `noise`, holds the product and then
    the transform, and is returned.
    """
    return fft(np.multiply(scale, noise, out=out), out=out)
