"""Gaussian increment synthesis: covariances, spectrum, samplers.

Covers:
  - Entry-point validation of H, horizon and steps, and grid arithmetic.
  - Covariance closed forms against frozen constants and the telescoping
    identity sum_{i,j} gamma(|i-j|) = T^{2H}; lag arrays against scalar lags.
  - Circulant spectrum: flatness at H = 1/2, positivity, trace identity.
  - FFT sampler statistics, through the tests' one-pair helper
    (`reference_samplers.sample_fgn`): increment variance, terminal
    variance and normality, lag-1 autocovariance, pair independence,
    determinism.
  - The tests' dense Cholesky oracle: its factor is that of the Toeplitz
    covariance, agreement with the FFT sampler (two-sample KS), exact
    prefix-sum bookkeeping.
  - The runner's paths are the prefix sums of the pair helper's increment rows.
"""

import re

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.stats import kstest, ks_2samp

from fbmpassage import (
    GAUSSIAN_STREAM,
    SimulationJob,
    circulant_spectrum,
    fgn_autocovariance,
    run_simulation,
    substream,
)
from fbmpassage.cli import _grid_index
from reference_samplers import cholesky_factor, cholesky_fbm, sample_fgn


# ---------------------------------------------------------------------------
# entry-point validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, float("nan"), float("inf")])
def test_hurst_rejects_out_of_range(bad):
    """The covariance and the spectrum refuse an H outside (0, 1)."""
    message = re.escape(f"Hurst index must lie in (0, 1), got {bad}")
    with pytest.raises(ValueError, match=message):
        fgn_autocovariance(bad, 1, 0.25)
    with pytest.raises(ValueError, match=message):
        circulant_spectrum(bad, 1.0, 8)


def test_time_grid_arithmetic():
    """The mesh is horizon / steps, the CLI's time index rounds down to a grid
    point (tolerating roundoff), and the spectrum refuses a bad grid."""
    assert np.max(np.abs(circulant_spectrum(0.5, 5.0, 8) - 0.625)) < 1e-12
    assert _grid_index(0.0, 5.0, 8) == 0
    assert _grid_index(1.25, 5.0, 8) == 2
    assert _grid_index(5.0, 5.0, 8) == 8
    assert _grid_index(0.3, 1.0, 10) == 3  # 0.3 / 0.1 = 2.9999999999999996
    with pytest.raises(ValueError):
        _grid_index(5.1, 5.0, 8)
    for horizon, steps, message in [
        (0.0, 8, "horizon must be positive and finite, got 0.0"),
        (1.0, 0, "steps must be a positive integer, got 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            circulant_spectrum(0.6, horizon, steps)


# ---------------------------------------------------------------------------
# covariance closed forms
# ---------------------------------------------------------------------------

def test_fgn_autocovariance_points():
    assert fgn_autocovariance(0.5, 1, 0.25) == 0.0
    assert fgn_autocovariance(0.75, 0, 1.0) == pytest.approx(1.0, abs=1e-15)
    # 0.5 * (2^{1.5} - 2) = sqrt(2) - 1
    assert fgn_autocovariance(0.75, 1, 1.0) == pytest.approx(
        0.41421356237309515, abs=1e-14
    )


def test_fgn_autocovariance_sums_to_terminal_variance():
    """Increment covariances over an N-step grid add up to Var(B_T) = T^{2H}."""
    h, horizon, steps = 0.7, 3.0, 64
    total = 0.0
    for i in range(steps):
        for j in range(steps):
            total += fgn_autocovariance(h, abs(i - j), horizon / steps)
    assert total == pytest.approx(horizon ** (2.0 * h), rel=1e-12)


def test_fgn_autocovariance_positive_memory():
    # H > 1/2 increments are positively correlated at every lag
    for lag in range(1, 6):
        assert fgn_autocovariance(0.8, lag, 0.5) > 0.0


@pytest.mark.parametrize("hv", [0.51, 0.7])
def test_fgn_autocovariance_array_matches_scalar_calls(hv):
    lags = np.arange(300)
    scalar = np.array([fgn_autocovariance(hv, int(k), 0.25) for k in lags])
    np.testing.assert_array_max_ulp(fgn_autocovariance(hv, lags, 0.25), scalar, maxulp=1)


def test_fgn_autocovariance_rejects_a_negative_lag_in_an_array():
    with pytest.raises(ValueError, match="non-negative"):
        fgn_autocovariance(0.7, np.array([0, 1, -2, 3]), 0.25)


# ---------------------------------------------------------------------------
# circulant spectrum
# ---------------------------------------------------------------------------

def test_spectrum_flat_for_brownian():
    horizon, steps = 1.0, 256
    spec = circulant_spectrum(0.5, horizon, steps)
    assert spec.shape == (2 * steps,)
    assert np.max(np.abs(spec - horizon / steps)) < 1e-12


@pytest.mark.parametrize("hv", [0.55, 0.6, 0.7, 0.8, 0.9, 0.95])
def test_spectrum_nonnegative(hv):
    spec = circulant_spectrum(hv, 1.0, 1024)
    assert spec.min() >= 0.0


def test_spectrum_trace_identity():
    """Mean eigenvalue equals gamma(0) = step^{2H} (DFT preserves the trace)."""
    h, horizon, steps = 0.8, 2.0, 128
    spec = circulant_spectrum(h, horizon, steps)
    assert spec.mean() == pytest.approx((horizon / steps) ** (2.0 * h), rel=1e-12)


def test_spectrum_small_case_against_direct_dft():
    h, horizon, steps = 0.6, 8.0, 8
    gamma = np.array([fgn_autocovariance(h, k, horizon / steps) for k in range(9)])
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    direct = np.fft.fft(row).real
    spec = circulant_spectrum(h, horizon, steps)
    assert np.allclose(spec, np.maximum(direct, 0.0), atol=1e-12)
    assert (direct > -1e-12).all()


# ---------------------------------------------------------------------------
# FFT sampler
# ---------------------------------------------------------------------------

def test_sample_fgn_shapes_and_determinism():
    h, horizon, steps = 0.7, 1.0, 64
    spec = circulant_spectrum(h, horizon, steps)
    first = sample_fgn(spec, np.random.default_rng(123))
    second = sample_fgn(spec, np.random.default_rng(123))
    assert first.shape == (2, 64)
    assert np.array_equal(first, second)
    assert not np.array_equal(first[0], first[1])


def test_sample_fgn_brownian_increment_variance():
    h, horizon, steps = 0.5, 1.0, 512
    spec = circulant_spectrum(h, horizon, steps)
    rng = np.random.default_rng(2024)
    incs = []
    for _ in range(200):
        incs.append(sample_fgn(spec, rng))
    flat = np.concatenate(incs).ravel()
    var = flat.var(ddof=1)
    n = flat.size
    z = (var - horizon / steps) / (horizon / steps * np.sqrt(2.0 / (n - 1)))
    assert abs(z) < 5.0, f"increment variance z = {z:.2f}"


def test_sample_fgn_terminal_variance_and_normality():
    h, horizon, steps = 0.7, 1.0, 256
    spec = circulant_spectrum(h, horizon, steps)
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
    stat = kstest(terms / horizon ** h, "norm").pvalue
    assert stat > 0.01, f"terminal normality KS p = {stat:.4f}"


def test_sample_fgn_lag1_autocovariance():
    h, horizon, steps = 0.75, 256.0, 256  # step 1 so gamma(1) = sqrt(2) - 1
    spec = circulant_spectrum(h, horizon, steps)
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
    h, horizon, steps = 0.6, 1.0, 128
    spec = circulant_spectrum(h, horizon, steps)
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
    h, horizon, steps = 0.8, 1.0, 128
    spec = circulant_spectrum(h, horizon, steps)
    rng_f = np.random.default_rng(2718)
    fft_terms = []
    for _ in range(750):
        a, b = sample_fgn(spec, rng_f)
        fft_terms.append(a.sum())
        fft_terms.append(b.sum())
    rng_c = np.random.default_rng(3141)
    chol_terms = [cholesky_fbm(h, horizon, steps, rng_c)[-1] for _ in range(1500)]
    p = ks_2samp(fft_terms, chol_terms).pvalue
    assert p > 0.001, f"two-sample KS p = {p:.5f}"


@pytest.mark.parametrize("hv", [0.3, 0.5, 0.8])
def test_cholesky_factor_equals_factor_of_toeplitz_matrix(hv):
    """The oracle's covariance matrix is the Toeplitz layout of gamma(0..N-1), bit for bit."""
    cov = toeplitz(fgn_autocovariance(hv, np.arange(64), 3.0 / 64))
    np.testing.assert_array_equal(cholesky_factor(hv, 3.0, 64), np.linalg.cholesky(cov))


def test_cholesky_path_layout():
    path = cholesky_fbm(0.7, 1.0, 16, np.random.default_rng(5))
    assert path.shape == (17,)
    assert path[0] == 0.0


# ---------------------------------------------------------------------------
# path assembly
# ---------------------------------------------------------------------------

def test_fbm_path_differences_recover_block():
    """The runner's paths 2k and 2k+1 start at zero and step by the
    increment rows that the pair helper draws from pair k's Gaussian stream."""
    h, horizon, steps = 0.6, 5.0, 512
    job = SimulationJob(
        hurst=(h,), horizon=horizon, steps=steps, samples=4, master_seed=11,
        rules=(), marginal_indices=tuple(range(steps + 1)),
    )
    marginals = run_simulation(job)["marginals"][0]
    spec = circulant_spectrum(h, horizon, steps)
    for k in range(2):
        increments = sample_fgn(spec, substream(11, GAUSSIAN_STREAM, k))
        paths = marginals[2 * k : 2 * k + 2]
        assert (paths[:, 0] == 0.0).all()
        assert np.max(np.abs(np.diff(paths, axis=1) - increments)) < 1e-12
