"""Monte Carlo estimators built on hit times, suprema and argmax times.

Covers:
  - Laplace averaging: hand-computed values, censoring as zero weight,
    degenerate inputs, standard errors.
  - Gaps between the transforms of two hit-time arrays.
  - Hit-time histograms: one-point case, mass normalization, no-hit error.
  - Truncated argmax moments: an independent quadrature oracle for the
    Brownian case (joint supremum/argmax density), Monte Carlo agreement,
    and the r -> 0 pathwise bound.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fbmpassage import (
    NoHitsError,
    SimulationJob,
    density_from_times,
    gap_estimate,
    laplace_from_times,
    run_simulation,
    truncated_argmax_moments,
)
from fbmpassage.cli import _grid_index


# ---------------------------------------------------------------------------
# Laplace averaging
# ---------------------------------------------------------------------------

def test_laplace_hand_values():
    times = np.array([0.5, np.inf, 1.0])
    value, se = laplace_from_times(times, 1.0)
    want = (math.exp(-0.5) + 0.0 + math.exp(-1.0)) / 3.0
    assert value == pytest.approx(want, rel=1e-14)
    weights = np.array([math.exp(-0.5), 0.0, math.exp(-1.0)])
    assert se == pytest.approx(weights.std(ddof=1) / math.sqrt(3), rel=1e-12)


def test_laplace_all_hits_at_zero():
    value, se = laplace_from_times(np.zeros(5), 2.0)
    assert value == 1.0
    assert se == 0.0


def test_laplace_all_censored():
    value, se = laplace_from_times(np.full(4, np.inf), 1.0)
    assert value == 0.0
    assert se == 0.0


def test_laplace_rejects_bad_lambda():
    with pytest.raises(ValueError):
        laplace_from_times(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        laplace_from_times(np.array([1.0]), -2.0)


# ---------------------------------------------------------------------------
# gaps
# ---------------------------------------------------------------------------

def test_gap_against_exact_reference():
    """An array against itself: the gap is exactly zero, and both errors count."""
    times = np.array([1.0, 2.0])
    gap, se = gap_estimate(times, times, 1.0)
    _, one_se = laplace_from_times(times, 1.0)
    assert gap == 0.0
    assert se == math.hypot(one_se, one_se)


def test_gap_against_other_estimate():
    ref_times = np.array([0.5, 1.5, np.inf])
    times = np.array([1.0, 2.0, 3.0])
    va, sa = laplace_from_times(ref_times, 1.0)
    vb, sb = laplace_from_times(times, 1.0)
    gap, se = gap_estimate(times, ref_times, 1.0)
    assert gap == va - vb
    assert se == math.hypot(sb, sa)


# ---------------------------------------------------------------------------
# hit-time histograms
# ---------------------------------------------------------------------------

def test_density_one_point():
    edges, mass = density_from_times(np.array([1.0]), 2.0, bins=1)
    assert mass.shape == (1,)
    # one hit out of one path spread over a width-2 bin
    assert mass[0] == pytest.approx(0.5, rel=1e-14)


def test_density_mass_is_hit_fraction():
    times = np.array([0.3, 0.7, 4.0, np.inf, np.inf, 11.0])
    edges, mass = density_from_times(times, 20.0, bins=40)
    widths = np.diff(edges)
    total = float((mass * widths).sum())
    # the 11.0 hit lies beyond the default window [0, 10] and is excluded
    assert total == pytest.approx(3.0 / 6.0, rel=1e-12)


def test_density_all_censored_raises():
    with pytest.raises(NoHitsError):
        density_from_times(np.full(3, np.inf), 5.0)


# ---------------------------------------------------------------------------
# truncated argmax moments
# ---------------------------------------------------------------------------

def _brownian_truncated_argmax_moment(r, eta, p):
    """Quadrature oracle for E[1{sup <= 1 + eta} argmax^{p/2}] at H = 1/2.

    The joint law of (argmax theta, max M) over [0, r] for Brownian motion
    has density a exp(-a^2 / (2 t)) / (pi sqrt(t^3 (r - t))) on
    t in (0, r), a > 0.  Integrating a out up to the barrier 1 + eta gives
    the t-marginal below, leaving a one-dimensional quadrature.
    """
    b = 1.0 + eta

    def integrand(t):
        return (
            t ** ((p - 1.0) / 2.0)
            * (1.0 - math.exp(-b * b / (2.0 * t)))
            / (math.pi * math.sqrt(r - t))
        )

    val, err = quad(integrand, 0.0, r, limit=200)
    assert err < 1e-8
    return val


def _argmax_moments(hurst, eta, p, r_values, horizon, steps, samples, seed):
    """(r, moment, std_error) per window from one run's window extremes."""
    indices = tuple(_grid_index(r, horizon, steps) for r in r_values)
    job = SimulationJob(
        hurst=(hurst,), horizon=horizon, steps=steps, samples=samples, master_seed=seed,
        rules=(), extreme_indices=indices,
    )
    out = run_simulation(job)
    return truncated_argmax_moments(out["sup_values"][0], out["argmax_times"][0], r_values, hurst * p, eta)


def test_quadrature_oracle_frozen_values():
    assert _brownian_truncated_argmax_moment(5.0, 0.1, 2.5) == pytest.approx(
        0.57113, abs=2e-5
    )
    assert _brownian_truncated_argmax_moment(10.0, 0.1, 2.5) == pytest.approx(
        0.73100, abs=2e-5
    )
    assert _brownian_truncated_argmax_moment(20.0, 0.1, 2.5) == pytest.approx(
        0.90941, abs=2e-5
    )


def test_conjecture_moments_match_quadrature():
    """Monte Carlo moments sit near the continuous-time quadrature values.

    The grid supremum undershoots the continuous supremum, so the indicator
    keeps slightly too many paths and the estimate lands a few percent high;
    the gap shrinks with the mesh.  A fixed seed keeps this deterministic.
    """
    rows = _argmax_moments(0.5, 0.1, 2.5, (5.0, 10.0, 20.0), 20.0, 2**12, 10000, 1729)
    for r, value, se in rows:
        oracle = _brownian_truncated_argmax_moment(r, 0.1, 2.5)
        rel = abs(value - oracle) / oracle
        assert se > 0.0
        assert rel < 0.15, f"r={r}: mc {value:.4f} vs quadrature {oracle:.4f}"
    values = [v for _, v, _ in rows]
    assert values[0] < values[1] < values[2], "moment grows with the window"


def test_conjecture_moment_small_window_bound():
    # argmax <= r pathwise, so the moment is at most r^{p/2} even before truncation
    r = 20.0 / 2**12 * 4
    ((_, value, se),) = _argmax_moments(0.5, 0.1, 2.5, (r,), 20.0, 2**12, 2000, 7)
    assert 0.0 <= value <= r**1.25 + 1e-12


def test_conjecture_moments_share_paths_across_windows():
    one = _argmax_moments(0.5, 0.1, 2.5, (5.0,), 20.0, 2**10, 3000, 99)
    both = _argmax_moments(0.5, 0.1, 2.5, (5.0, 10.0), 20.0, 2**10, 3000, 99)
    assert one[0][1] == both[0][1], "adding a window must not perturb earlier ones"

