"""Least-squares fitting.

Covers:
  - linear_fit on exact lines and on a reference gap
    sequence with frozen slope / R-squared / log-log exponent.
  - rate_exponent filtering rules: non-positive gaps and gaps within two
    standard errors are dropped; fewer than two survivors is an error.  The
    drop note names each dropped H by its shortest round-tripping repr, so
    H values that differ in the seventh digit stay apart.
"""

import logging

import numpy as np
import pytest

from fbmpassage import linear_fit, rate_exponent


# ---------------------------------------------------------------------------
# linear_fit
# ---------------------------------------------------------------------------

def test_linear_fit_exact_line():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    fit = linear_fit(xs, 2.0 * xs + 1.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-14)
    assert fit.intercept == pytest.approx(1.0, abs=1e-14)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-14)
    assert fit.slope_se == pytest.approx(0.0, abs=1e-12)
    assert fit.n == 4


def test_linear_fit_needs_two_points():
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])


def test_linear_fit_reference_gap_sequence():
    """Frozen regression numbers for a near-linear gap-vs-offset benchmark."""
    offsets = [0.01, 0.02, 0.04, 0.1]
    gaps = [0.0077, 0.0125, 0.0229, 0.0493]
    fit = linear_fit(offsets, gaps)
    assert fit.slope == pytest.approx(0.46072, abs=1e-4)
    assert fit.r_squared == pytest.approx(0.99882, abs=1e-4)
    loglog = linear_fit(np.log(offsets), np.log(gaps))
    assert loglog.slope == pytest.approx(0.8139, abs=1e-3)
    assert 0.6 <= loglog.slope <= 1.2


# ---------------------------------------------------------------------------
# rate_exponent
# ---------------------------------------------------------------------------

def test_rate_exponent_power_law_recovered():
    hs = np.array([0.51, 0.52, 0.54, 0.6])
    gaps = 0.5 * (hs - 0.5) ** 0.9
    fit = rate_exponent(hs, gaps)
    assert fit.slope == pytest.approx(0.9, abs=1e-10)


def test_rate_exponent_drops_nonpositive_gaps():
    hs = [0.51, 0.52, 0.54, 0.6]
    gaps = [-1e-4, 0.012, 0.023, 0.049]
    fit = rate_exponent(hs, gaps)
    assert fit.n == 3


def test_rate_exponent_drops_noise_level_gaps():
    hs = [0.51, 0.52, 0.54, 0.6]
    gaps = [0.001, 0.012, 0.023, 0.049]
    ses = [0.002, 0.001, 0.001, 0.001]  # first gap is within 2 SE of zero
    fit = rate_exponent(hs, gaps, gap_ses=ses)
    assert fit.n == 3


def test_rate_exponent_needs_two_survivors():
    with pytest.raises(ValueError):
        rate_exponent([0.51, 0.52], [0.01, -0.01])


def test_rate_exponent_names_dropped_h_values_apart(caplog):
    hs = [0.5000001, 0.5000002, 0.5000003, 0.51, 0.6]
    gaps = [-1e-4, -2e-4, -3e-4, 0.012, 0.049]
    with caplog.at_level(logging.WARNING, logger="fbmpassage.analysis"):
        fit = rate_exponent(hs, gaps)
    assert fit.n == 2
    assert "dropped 3 gap(s) at H=[0.5000001, 0.5000002, 0.5000003] " in caplog.text
