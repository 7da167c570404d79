"""Exact synthesis of fractional Gaussian noise and fractional Brownian motion.

The sampler embeds the stationary increment covariance in a circulant matrix
that the FFT diagonalizes (Davies-Harte construction).  Eigenvalues are the
discrete Fourier transform of the wrapped autocovariance row, and one complex
FFT of white noise yields two independent increment blocks, so the method is
exact in distribution at every grid size.  `_pair_paths` alone fixes how a
pair's generator becomes its two path rows.  Every entry point takes the
Hurst index h, the horizon and the grid's steps as plain numbers, the
fields of a SimulationJob, and checks them; the mesh is horizon / steps.
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

def _pair_fft(scale: np.ndarray, normals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """FFT(scale * (u + iv)) along the last axis, with scale = sqrt(spectrum / 2N).

    `normals` is a (pairs, 2, 2N) block: u is normals[:, 0] and v is
    normals[:, 1].  Each is multiplied by `scale` into its own part of the
    complex (pairs, 2N) buffer `out`, which is transformed in place, row by
    row in one call, with the same bits as one call per row, and returned.
    """
    np.multiply(scale, normals[:, 0], out=out.real)
    np.multiply(scale, normals[:, 1], out=out.imag)
    return fft(out, out=out)


def _pair_paths(rngs, scales: tuple[np.ndarray, ...], out: np.ndarray) -> None:
    """Fill the (H, 2 pairs, N + 1) rows `out` with one pair per generator of `rngs`, at the H of each scale.

    `rngs` is any iterable of generators, taken one at a time, in pair
    order.  Each pair draws its 4N normals in one call into a float block:
    the real parts of its 2N complex normals, then the imaginary parts;
    this layout is part of the reproducibility contract.  Then, for each H,
    _pair_fft transforms the block into one reused buffer, and the first N
    real parts are prefix-summed into the pair's even row and the first N
    imaginary parts into its odd row, from column 1 on.  Column 0 is left
    as it is.
    """
    m = len(scales[0])
    block = np.empty((out.shape[1] // 2, 2, m))
    for rng, normals in zip(rngs, block):
        # the size, redundant with `out`, lets a wrapped generator count the draw
        rng.standard_normal(normals.shape, out=normals)
    transformed = np.empty((len(block), m), dtype=complex)
    for scale, rows in zip(scales, out):
        y = _pair_fft(scale, block, transformed)
        np.add.accumulate(y.real[:, : m // 2], axis=1, out=rows[0::2, 1:])
        np.add.accumulate(y.imag[:, : m // 2], axis=1, out=rows[1::2, 1:])
