"""Exact synthesis of fractional Gaussian noise and fractional Brownian motion.

The sampler embeds the stationary increment covariance in a circulant matrix
that the FFT diagonalizes (Davies-Harte construction).  Eigenvalues are the
discrete Fourier transform of the wrapped autocovariance row, and one complex
FFT of white noise yields two independent increment blocks, so the method is
exact in distribution at every grid size.  A dense Cholesky factorization of
the same covariance serves as an independent, small-size oracle for
cross-checking the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import fft  # numpy imports its fft module on first use otherwise

__all__ = [
    "EIGENVALUE_TOL",
    "CHOLESKY_CAP",
    "EmbeddingError",
    "Hurst",
    "TimeGrid",
    "FgnBlock",
    "FbmPath",
    "fbm_covariance",
    "fgn_autocovariance",
    "circulant_spectrum",
    "sample_fgn",
    "fbm_path",
    "cholesky_fbm",
]

# Relative tolerance for the eigenvalue clamp: entries in [-tol * max, 0)
# are rounded up to zero, anything lower is a hard failure.
EIGENVALUE_TOL = 1e-12

# Default size cap for the dense Cholesky oracle (O(N^3) factor cost).
CHOLESKY_CAP = 2**11


class EmbeddingError(RuntimeError):
    """Raised when the circulant embedding is not positive semi-definite."""


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hurst:
    """Hurst index of the process, constrained to the open interval (0, 1)."""

    value: float

    def __post_init__(self):
        v = self.value
        if not (np.isfinite(v) and 0.0 < v < 1.0):
            raise ValueError(f"Hurst index must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with `steps` intervals.

    The mesh is always horizon / steps, computed in one division; grid times
    are n * step so that recorded event times are exact multiples of the mesh.
    """

    horizon: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 1):
            raise ValueError(f"steps must be a positive integer, got {self.steps}")

    @property
    def step(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.step

    def time_index(self, t: float) -> int:
        """Largest grid index n with n * step <= t (tolerating roundoff)."""
        if not 0.0 <= t <= self.horizon * (1.0 + 1e-12):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        n = int(np.floor(t / self.step + 1e-9))
        return min(n, self.steps)


@dataclass(frozen=True, eq=False)
class FgnBlock:
    """One path's worth of stationary fractional Gaussian increments."""

    increments: np.ndarray
    grid: TimeGrid
    hurst: Hurst

    def __post_init__(self):
        if self.increments.ndim != 1 or len(self.increments) != self.grid.steps:
            raise ValueError(
                f"expected {self.grid.steps} increments, got shape {self.increments.shape}"
            )


@dataclass(frozen=True, eq=False)
class FbmPath:
    """Fractional Brownian motion sampled on a grid, started at zero."""

    values: np.ndarray
    grid: TimeGrid
    hurst: Hurst

    def __post_init__(self):
        if self.values.ndim != 1 or len(self.values) != self.grid.steps + 1:
            raise ValueError(
                f"expected {self.grid.steps + 1} values, got shape {self.values.shape}"
            )
        if self.values[0] != 0.0:
            raise ValueError(f"fBm paths start at zero, got {self.values[0]}")


# ---------------------------------------------------------------------------
# covariance structure
# ---------------------------------------------------------------------------

def fbm_covariance(h: Hurst, s: float, t: float) -> float:
    """Covariance of fractional Brownian motion at times s and t.

    Equals (s^{2H} + t^{2H} - |t - s|^{2H}) / 2; at H = 1/2 this reduces to
    min(s, t), the standard Brownian covariance.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError(f"times must be non-negative, got s={s}, t={t}")
    two_h = 2.0 * h.value
    return 0.5 * (s**two_h + t**two_h - abs(t - s) ** two_h)


def fgn_autocovariance(h: Hurst, lag: int, step: float) -> float:
    """Autocovariance of the increment sequence at the given lag.

    gamma(k) = step^{2H} / 2 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).
    Lag zero gives the increment variance step^{2H}; for H = 1/2 all
    positive lags vanish.
    """
    if lag < 0:
        raise ValueError(f"lag must be non-negative, got {lag}")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive, got {step}")
    two_h = 2.0 * h.value
    k = float(lag)
    return 0.5 * step**two_h * (
        abs(k + 1.0) ** two_h - 2.0 * k**two_h + abs(k - 1.0) ** two_h
    )


def _autocovariance_row(h: Hurst, grid: TimeGrid) -> np.ndarray:
    """gamma(0..N) evaluated in one vectorized sweep."""
    two_h = 2.0 * h.value
    pw = np.arange(grid.steps + 2, dtype=float) ** two_h
    # second difference of j^{2H} gives lags 1..N; lag 0 is (1 - 0 + 1)/2 = 1
    core = 0.5 * (pw[2:] - 2.0 * pw[1:-1] + pw[:-2])
    gamma = np.concatenate(([1.0], core))
    return grid.step**two_h * gamma


def circulant_spectrum(h: Hurst, grid: TimeGrid) -> np.ndarray:
    """Eigenvalues of the circulant embedding of the increment covariance.

    The wrapped row is [gamma(0), .., gamma(N-1), gamma(N), gamma(N-1), .., gamma(1)]
    of length 2N; its DFT is real and must be non-negative for exact sampling.
    Entries within EIGENVALUE_TOL * max of zero (from roundoff) are clamped to
    zero; genuinely negative entries raise EmbeddingError.

    Args:
        h: Hurst index.
        grid: time grid; `steps` must be a power of two (FFT-friendly sizes
            keep the transform exact and fast; other sizes are rejected).

    Returns:
        Vector of 2N non-negative eigenvalues.
    """
    n = grid.steps
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"steps must be a power of two for the circulant sampler, got {n}")
    gamma = _autocovariance_row(h, grid)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = fft(row).real
    lam_max = float(eigs.max())
    floor = -EIGENVALUE_TOL * lam_max
    lam_min = float(eigs.min())
    if lam_min < floor:
        raise EmbeddingError(
            f"circulant embedding failed for H={h.value}, N={n}: "
            f"eigenvalue {lam_min:.3e} below tolerance {floor:.3e}"
        )
    if lam_min < 0.0:
        eigs = np.where(eigs < 0.0, 0.0, eigs)
    return eigs


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _sample_pair_raw(
    spectrum: np.ndarray, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent increment blocks from one complex FFT.

    With w = u + iv standard complex white noise, the real and imaginary
    parts of FFT(sqrt(spectrum / 2N) * w) each carry the circulant
    covariance, and they are mutually independent.
    """
    m = len(spectrum)
    y = _pair_fft(np.sqrt(spectrum / m), _complex_noise(rng, m))
    return np.ascontiguousarray(y.real[:steps]), np.ascontiguousarray(y.imag[:steps])


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
    """FFT(scale * noise), with scale = sqrt(spectrum / 2N).

    The first N real parts and the first N imaginary parts of the result
    are the increments of the pair's two paths.  `out`, if given, holds
    the product and then the transform, and is returned.
    """
    return fft(np.multiply(scale, noise, out=out), out=out)


def sample_fgn(
    spectrum: np.ndarray, h: Hurst, grid: TimeGrid, rng: np.random.Generator
) -> tuple[FgnBlock, FgnBlock]:
    """Draw two independent fractional Gaussian noise blocks.

    Args:
        spectrum: output of circulant_spectrum for the same (h, grid).
        h: Hurst index, recorded on the blocks.
        grid: time grid, recorded on the blocks.
        rng: source generator; exactly 4N normals are consumed.

    Returns:
        Pair of independent FgnBlock instances.  Consumers pair them with
        consecutive path indices (2k, 2k+1) so no draw is wasted.
    """
    if len(spectrum) != 2 * grid.steps:
        raise ValueError(
            f"spectrum length {len(spectrum)} does not match 2 * steps = {2 * grid.steps}"
        )
    a, b = _sample_pair_raw(spectrum, grid.steps, rng)
    return FgnBlock(a, grid, h), FgnBlock(b, grid, h)


def fbm_path(block: FgnBlock) -> FbmPath:
    """Prefix-sum an increment block into a path started at zero."""
    values = np.empty(block.grid.steps + 1)
    values[0] = 0.0
    np.cumsum(block.increments, out=values[1:])
    return FbmPath(values, block.grid, block.hurst)


@lru_cache(maxsize=8)
def _cholesky_factor(h_value: float, grid: TimeGrid) -> np.ndarray:
    from scipy.linalg import toeplitz

    gamma = _autocovariance_row(Hurst(h_value), grid)[: grid.steps]
    cov = toeplitz(gamma)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise EmbeddingError(
            f"increment covariance not positive definite for H={h_value}, N={grid.steps}: {exc}"
        ) from exc


def cholesky_fbm(
    h: Hurst, grid: TimeGrid, rng: np.random.Generator, cap: int = CHOLESKY_CAP
) -> FbmPath:
    """Exact fBm sample via dense Cholesky factorization of the increment covariance.

    Slow reference oracle: the factor costs O(N^3) once per (h, grid) and is
    cached; each call then consumes N normals.  Sizes above `cap` are refused
    to keep accidental quadratic-memory use out of production paths.
    """
    if grid.steps > cap:
        raise ValueError(
            f"Cholesky oracle capped at {cap} steps, got {grid.steps}; "
            "use the circulant sampler for large grids"
        )
    factor = _cholesky_factor(h.value, grid)
    increments = factor @ rng.standard_normal(grid.steps)
    values = np.empty(grid.steps + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return FbmPath(values, grid, h)
