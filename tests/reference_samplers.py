"""Reference samplers for the tests, outside the package.

The package makes fGn only through the runner's chunk pipeline.  These two
stand beside it and share none of its sampling code: `sample_fgn` builds
one pair's two increment rows by its own copy of the circulant
construction, so tests can build a path row by row from any generator and
compare the runner's rows with it bit for bit, and `cholesky_fbm` samples
from a dense Cholesky factor of the increment covariance, with no FFT and
no circulant embedding, as an independent oracle on small grids.
"""

from functools import lru_cache

import numpy as np

from fbmpassage.fgn import fgn_autocovariance


def sample_fgn(spectrum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two independent increment rows of N = len(spectrum) / 2 steps from one complex FFT of 4N normals
    from `rng`: the first N real parts, then the first N imaginary parts, as the runner's paths 2k and
    2k + 1 step.

    The white noise u + iv takes u from the first 2N normals and v from the next 2N, and is multiplied
    by sqrt(spectrum / 2N) as a complex array.
    """
    m = len(spectrum)
    noise = np.empty(m, dtype=complex)
    noise.real = rng.standard_normal(m)
    noise.imag = rng.standard_normal(m)
    y = np.fft.fft(np.sqrt(spectrum / m) * noise)
    return np.array([y.real[: m // 2], y.imag[: m // 2]])


@lru_cache(maxsize=8)
def cholesky_factor(h: float, horizon: float, steps: int) -> np.ndarray:
    """Lower Cholesky factor of the covariance of `steps` increments, the Toeplitz layout of gamma(0..N-1)."""
    i = np.arange(steps)
    return np.linalg.cholesky(fgn_autocovariance(h, i, horizon / steps)[np.abs(i[:, None] - i)])


def cholesky_fbm(h: float, horizon: float, steps: int, rng: np.random.Generator) -> np.ndarray:
    """fBm path values at the N + 1 grid points of [0, horizon], starting at zero, from N normals of `rng`.

    The factor costs O(N^3) once per (h, horizon, steps) and is cached.
    """
    values = np.zeros(steps + 1)
    np.cumsum(cholesky_factor(h, horizon, steps) @ rng.standard_normal(steps), out=values[1:])
    return values
