"""Reference samplers for the tests, outside the package.

The package makes fGn only through the runner's chunk pipeline.  These two
stand beside it: `sample_fgn` transforms one pair's noise with the
runner's own pieces, so tests can build a path row by row from any
generator, and `cholesky_fbm` samples from a dense Cholesky factor of the
increment covariance, with no FFT and no circulant embedding, as an
independent oracle on small grids.
"""

from functools import lru_cache

import numpy as np

from fbmpassage.fgn import _complex_noise, _pair_fft, fgn_autocovariance


def sample_fgn(spectrum: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two independent increment rows of N = len(spectrum) / 2 steps from one complex FFT of 4N normals
    from `rng`: the first N real parts, then the first N imaginary parts, as the runner's paths 2k and
    2k + 1 step."""
    m = len(spectrum)
    y = _pair_fft(np.sqrt(spectrum / m), _complex_noise(rng, m))
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
