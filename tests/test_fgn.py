"""Gaussian increment synthesis: covariances, spectrum, samplers.

Covers:
  - Hurst and TimeGrid validation plus grid arithmetic.
  - Covariance closed forms against frozen constants and the telescoping
    identity sum_{i,j} gamma(|i-j|) = T^{2H}; lag arrays against scalar lags.
  - Circulant spectrum: flatness at H = 1/2, positivity, trace identity.
  - FFT sampler statistics: increment variance, terminal variance and
    normality, lag-1 autocovariance, pair independence, determinism.
  - Dense Cholesky oracle: its factor is that of the Toeplitz covariance,
    agreement with the FFT sampler (two-sample KS), size cap, exact
    prefix-sum bookkeeping.
  - The runner's paths are the prefix sums of the sampler's increment rows.
"""

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.stats import kstest, ks_2samp

from fbmpassage import (
    CHOLESKY_CAP,
    GAUSSIAN_STREAM,
    Hurst,
    SimulationJob,
    TimeGrid,
    cholesky_fbm,
    circulant_spectrum,
    fgn_autocovariance,
    run_simulation,
    sample_fgn,
    substream,
)
from fbmpassage.fgn import _cholesky_factor


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, float("nan"), float("inf")])
def test_hurst_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Hurst(bad)


def test_time_grid_arithmetic():
    grid = TimeGrid(5.0, 8)
    assert grid.step == 0.625
    assert grid.time_index(0.0) == 0
    assert grid.time_index(1.25) == 2
    assert grid.time_index(5.0) == 8
    with pytest.raises(ValueError):
        grid.time_index(5.1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 8)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


# ---------------------------------------------------------------------------
# covariance closed forms
# ---------------------------------------------------------------------------

def test_fgn_autocovariance_points():
    assert fgn_autocovariance(Hurst(0.5), 1, 0.25) == 0.0
    assert fgn_autocovariance(Hurst(0.75), 0, 1.0) == pytest.approx(1.0, abs=1e-15)
    # 0.5 * (2^{1.5} - 2) = sqrt(2) - 1
    assert fgn_autocovariance(Hurst(0.75), 1, 1.0) == pytest.approx(
        0.41421356237309515, abs=1e-14
    )


def test_fgn_autocovariance_sums_to_terminal_variance():
    """Increment covariances over an N-step grid add up to Var(B_T) = T^{2H}."""
    h, grid = Hurst(0.7), TimeGrid(3.0, 64)
    total = 0.0
    for i in range(grid.steps):
        for j in range(grid.steps):
            total += fgn_autocovariance(h, abs(i - j), grid.step)
    assert total == pytest.approx(grid.horizon ** (2.0 * h.value), rel=1e-12)


def test_fgn_autocovariance_positive_memory():
    # H > 1/2 increments are positively correlated at every lag
    for lag in range(1, 6):
        assert fgn_autocovariance(Hurst(0.8), lag, 0.5) > 0.0


@pytest.mark.parametrize("hv", [0.51, 0.7])
def test_fgn_autocovariance_array_matches_scalar_calls(hv):
    h, lags = Hurst(hv), np.arange(300)
    scalar = np.array([fgn_autocovariance(h, int(k), 0.25) for k in lags])
    np.testing.assert_array_max_ulp(fgn_autocovariance(h, lags, 0.25), scalar, maxulp=1)


def test_fgn_autocovariance_rejects_a_negative_lag_in_an_array():
    with pytest.raises(ValueError, match="non-negative"):
        fgn_autocovariance(Hurst(0.7), np.array([0, 1, -2, 3]), 0.25)


# ---------------------------------------------------------------------------
# circulant spectrum
# ---------------------------------------------------------------------------

def test_spectrum_flat_for_brownian():
    grid = TimeGrid(1.0, 256)
    spec = circulant_spectrum(Hurst(0.5), grid)
    assert spec.shape == (2 * grid.steps,)
    assert np.max(np.abs(spec - grid.step)) < 1e-12


@pytest.mark.parametrize("hv", [0.55, 0.6, 0.7, 0.8, 0.9, 0.95])
def test_spectrum_nonnegative(hv):
    spec = circulant_spectrum(Hurst(hv), TimeGrid(1.0, 1024))
    assert spec.min() >= 0.0


def test_spectrum_trace_identity():
    """Mean eigenvalue equals gamma(0) = step^{2H} (DFT preserves the trace)."""
    h, grid = Hurst(0.8), TimeGrid(2.0, 128)
    spec = circulant_spectrum(h, grid)
    assert spec.mean() == pytest.approx(grid.step ** (2.0 * h.value), rel=1e-12)


def test_spectrum_small_case_against_direct_dft():
    h, grid = Hurst(0.6), TimeGrid(8.0, 8)
    gamma = np.array([fgn_autocovariance(h, k, grid.step) for k in range(9)])
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    direct = np.fft.fft(row).real
    spec = circulant_spectrum(h, grid)
    assert np.allclose(spec, np.maximum(direct, 0.0), atol=1e-12)
    assert (direct > -1e-12).all()


# ---------------------------------------------------------------------------
# FFT sampler
# ---------------------------------------------------------------------------

def test_sample_fgn_shapes_and_determinism():
    h, grid = Hurst(0.7), TimeGrid(1.0, 64)
    spec = circulant_spectrum(h, grid)
    first = sample_fgn(spec, np.random.default_rng(123))
    second = sample_fgn(spec, np.random.default_rng(123))
    assert first.shape == (2, 64)
    assert np.array_equal(first, second)
    assert not np.array_equal(first[0], first[1])


def test_sample_fgn_brownian_increment_variance():
    h, grid = Hurst(0.5), TimeGrid(1.0, 512)
    spec = circulant_spectrum(h, grid)
    rng = np.random.default_rng(2024)
    incs = []
    for _ in range(200):
        incs.append(sample_fgn(spec, rng))
    flat = np.concatenate(incs).ravel()
    var = flat.var(ddof=1)
    n = flat.size
    z = (var - grid.step) / (grid.step * np.sqrt(2.0 / (n - 1)))
    assert abs(z) < 5.0, f"increment variance z = {z:.2f}"


def test_sample_fgn_terminal_variance_and_normality():
    h, grid = Hurst(0.7), TimeGrid(1.0, 256)
    spec = circulant_spectrum(h, grid)
    rng = np.random.default_rng(99)
    terms = []
    for _ in range(5000):
        a, b = sample_fgn(spec, rng)
        terms.append(a.sum())
        terms.append(b.sum())
    terms = np.asarray(terms)
    m = len(terms)
    var = terms.var(ddof=1)
    z = (var - 1.0) / np.sqrt(2.0 / (m - 1))  # Var(B_1) = 1^{2H} = 1
    assert abs(z) < 5.0, f"terminal variance z = {z:.2f}"
    stat = kstest(terms / grid.horizon ** h.value, "norm").pvalue
    assert stat > 0.01, f"terminal normality KS p = {stat:.4f}"


def test_sample_fgn_lag1_autocovariance():
    h, grid = Hurst(0.75), TimeGrid(256.0, 256)  # step 1 so gamma(1) = sqrt(2) - 1
    spec = circulant_spectrum(h, grid)
    rng = np.random.default_rng(31337)
    per_block = []
    for _ in range(3000):
        for x in sample_fgn(spec, rng):
            per_block.append(np.mean(x[:-1] * x[1:]))
    per_block = np.asarray(per_block)
    se = per_block.std(ddof=1) / np.sqrt(len(per_block))
    z = (per_block.mean() - 0.41421356237309515) / se
    assert abs(z) < 5.0, f"lag-1 autocovariance z = {z:.2f}"


def test_sample_fgn_pair_blocks_uncorrelated():
    """The two blocks of one FFT draw must be independent; check terminal values."""
    h, grid = Hurst(0.6), TimeGrid(1.0, 128)
    spec = circulant_spectrum(h, grid)
    rng = np.random.default_rng(7)
    xs, ys = [], []
    for _ in range(4000):
        a, b = sample_fgn(spec, rng)
        xs.append(a.sum())
        ys.append(b.sum())
    r = np.corrcoef(xs, ys)[0, 1]
    z = r * np.sqrt(len(xs))
    assert abs(z) < 5.0, f"pair correlation z = {z:.2f}"


# ---------------------------------------------------------------------------
# Cholesky oracle
# ---------------------------------------------------------------------------

def test_cholesky_matches_fft_sampler_distribution():
    h, grid = Hurst(0.8), TimeGrid(1.0, 128)
    spec = circulant_spectrum(h, grid)
    rng_f = np.random.default_rng(2718)
    fft_terms = []
    for _ in range(750):
        a, b = sample_fgn(spec, rng_f)
        fft_terms.append(a.sum())
        fft_terms.append(b.sum())
    rng_c = np.random.default_rng(3141)
    chol_terms = [cholesky_fbm(h, grid, rng_c)[-1] for _ in range(1500)]
    p = ks_2samp(fft_terms, chol_terms).pvalue
    assert p > 0.001, f"two-sample KS p = {p:.5f}"


def test_cholesky_cap():
    grid = TimeGrid(1.0, CHOLESKY_CAP * 2)
    with pytest.raises(ValueError):
        cholesky_fbm(Hurst(0.6), grid, np.random.default_rng(0))


@pytest.mark.parametrize("hv", [0.3, 0.5, 0.8])
def test_cholesky_factor_equals_factor_of_toeplitz_matrix(hv):
    """The oracle's covariance matrix is the Toeplitz layout of gamma(0..N-1), bit for bit."""
    h, grid = Hurst(hv), TimeGrid(3.0, 64)
    cov = toeplitz(fgn_autocovariance(h, np.arange(grid.steps), grid.step))
    np.testing.assert_array_equal(_cholesky_factor(hv, grid), np.linalg.cholesky(cov))


def test_cholesky_path_layout():
    grid = TimeGrid(1.0, 16)
    path = cholesky_fbm(Hurst(0.7), grid, np.random.default_rng(5))
    assert path.shape == (17,)
    assert path[0] == 0.0


# ---------------------------------------------------------------------------
# path assembly
# ---------------------------------------------------------------------------

def test_fbm_path_differences_recover_block():
    """The runner's paths 2k and 2k+1 start at zero and step by the
    increment rows that sample_fgn draws from pair k's Gaussian stream."""
    h, grid = Hurst(0.6), TimeGrid(5.0, 512)
    job = SimulationJob(
        hurst=(h.value,), horizon=grid.horizon, steps=grid.steps, samples=4, master_seed=11,
        rules=(), marginal_indices=tuple(range(grid.steps + 1)),
    )
    marginals = run_simulation(job)["marginals"][0]
    spec = circulant_spectrum(h, grid)
    for k in range(2):
        increments = sample_fgn(spec, substream(11, GAUSSIAN_STREAM, k))
        paths = marginals[2 * k : 2 * k + 2]
        assert (paths[:, 0] == 0.0).all()
        assert np.max(np.abs(np.diff(paths, axis=1) - increments)) < 1e-12
