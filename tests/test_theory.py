"""Closed-form reference values and the density envelope.

Covers:
  - Brownian passage-time Laplace transform against frozen constants and
    its generating ODE (finite differences).
  - The density envelope: frozen points, growth, domain errors, and the
    Gaussian equality case.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from fbmpassage import Hurst, density_envelope, laplace_bm


# ---------------------------------------------------------------------------
# laplace_bm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "lam,expected",
    [(1.0, 0.2431), (2.0, 0.1353), (3.0, 0.0863), (4.0, 0.0591)],
)
def test_laplace_bm_reference_values(lam, expected):
    assert round(laplace_bm(lam, 0.0, 1.0), 4) == expected


def test_laplace_bm_closed_form():
    for lam in (0.5, 1.0, 2.7):
        for x0, thr in ((0.0, 1.0), (-0.5, 0.25), (0.2, 0.2)):
            want = math.exp(-(thr - x0) * math.sqrt(2.0 * lam))
            assert laplace_bm(lam, x0, thr) == pytest.approx(want, rel=1e-15)


def test_laplace_bm_zero_lambda_is_one():
    # tau is finite almost surely, so the transform at 0 is exactly 1
    assert laplace_bm(0.0, 0.0, 1.0) == 1.0


def test_laplace_bm_rejects_start_above_threshold():
    with pytest.raises(ValueError):
        laplace_bm(1.0, 1.5, 1.0)


def test_laplace_bm_solves_generator_equation():
    """u(x) = E[exp(-lam tau)] satisfies u''/2 = lam u with u(threshold) = 1."""
    lam, h = 1.7, 1e-4
    for x in (0.0, 0.3, 0.6):
        up = laplace_bm(lam, x + h, 1.0)
        mid = laplace_bm(lam, x, 1.0)
        down = laplace_bm(lam, x - h, 1.0)
        second = 0.5 * (up - 2.0 * mid + down) / h**2
        assert abs(second - lam * mid) < 1e-6 * max(lam * mid, 1e-30)
    assert laplace_bm(lam, 1.0, 1.0) == 1.0
    assert laplace_bm(lam, -50.0, 1.0) < 1e-12


# ---------------------------------------------------------------------------
# density_envelope
# ---------------------------------------------------------------------------

def test_density_envelope_gaussian_equality_case():
    """With no drift and unit diffusion bound the envelope is the exact density."""
    t = 2.0
    xs = np.linspace(-4.0, 4.0, 41)
    env = [density_envelope(t, x, 0.0, Hurst(0.5), c=0.0, sigma_sup=1.0) for x in xs]
    exact = norm.pdf(xs, scale=math.sqrt(t))
    assert np.max(np.abs(np.asarray(env) - exact)) < 1e-14


def test_density_envelope_mode_value():
    v = density_envelope(1.0, 0.0, 0.0, Hurst(0.5), c=0.0, sigma_sup=1.0)
    assert v == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)


def test_density_envelope_growth_at_center():
    """At x = x0 the envelope is exp(c t) / sqrt(2 pi t^{2H}): check the log slope."""
    h, c = Hurst(0.7), 0.8
    ts = np.linspace(1.0, 3.0, 200)
    logs = np.log([density_envelope(t, 0.0, 0.0, h, c=c, sigma_sup=1.0) for t in ts])
    slope = np.gradient(logs, ts)[1:-1]  # endpoints are one-sided, skip them
    want = c - h.value / ts[1:-1]
    assert np.max(np.abs(slope - want)) < 1e-3


def test_density_envelope_domain_and_sign():
    with pytest.raises(ValueError):
        density_envelope(0.0, 0.0, 0.0, Hurst(0.5))
    with pytest.raises(ValueError):
        density_envelope(1.0, 0.0, 0.0, Hurst(0.5), sigma_sup=0.0)
    for x in (-3.0, 0.0, 5.0):
        assert density_envelope(0.7, x, 0.1, Hurst(0.8), c=2.0, sigma_sup=1.5) > 0.0
