"""Closed-form reference values.

Covers:
  - Brownian passage-time Laplace transform against frozen constants and
    its generating ODE (finite differences).
"""

import math

import pytest

from fbmpassage import laplace_bm


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

