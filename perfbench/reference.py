"""Reference values for the benchmark's output checks.

Every value here is computed from a closed form or a quadrature, apart
from the program under test: nothing imports `fbmpassage`.

The plain grid rule detects a crossing only at grid points, so its hit
times are late.  For Brownian motion with diffusion sigma on a mesh dt,
Broadie, Glasserman & Kou (Math. Finance 7, 1997) show that the discrete
rule behaves like the continuous one at a level raised by
BGK_BETA * sigma * sqrt(dt), with BGK_BETA = -zeta(1/2) / sqrt(2 pi).
"""

from __future__ import annotations

import math

from scipy import integrate, special

BGK_BETA = -float(special.zeta(0.5)) / math.sqrt(2.0 * math.pi)  # 0.5826


def bgk_shift(step: float, sigma: float = 1.0) -> float:
    """Level shift that maps the continuous rule onto the plain grid rule."""
    return BGK_BETA * sigma * math.sqrt(step)


def brownian_laplace(lam: float, distance: float, sigma: float = 1.0) -> float:
    """E[exp(-lam tau)] for sigma * B started `distance` below the level."""
    return math.exp(-distance * math.sqrt(2.0 * lam) / sigma)


def ou_laplace(lam: float, k: float, sigma: float, x0: float, level: float) -> float:
    """E_x0[exp(-lam tau_level)] for dX = -k X dt + sigma dB.

    The ratio psi(x0) / psi(level) of the increasing solution of
    sigma^2/2 psi'' - k x psi' = lam psi, which is
    psi(x) = exp(k x^2 / (2 sigma^2)) D_{-lam/k}(-x sqrt(2k) / sigma)
    with D the parabolic cylinder function.
    """

    def psi(x):
        scaled = -x * math.sqrt(2.0 * k) / sigma
        return math.exp(k * x * x / (2.0 * sigma * sigma)) * special.pbdv(-lam / k, scaled)[0]

    return psi(x0) / psi(level)


def argmax_moment(r: float, q: float, c: float) -> float:
    """E[1{M_r <= c} theta_r^q] for standard Brownian motion on [0, r].

    M_r is the maximum and theta_r its location.  Integrating the joint
    density m / (pi theta^{3/2} sqrt(r - theta)) exp(-m^2 / (2 theta)) over
    m in [0, c] leaves
    (1/pi) int_0^r theta^{q-1/2} (1 - exp(-c^2 / (2 theta))) / sqrt(r - theta) dtheta,
    whose endpoint powers go into quad's algebraic weight.
    """

    def truncation(theta):
        return -math.expm1(-c * c / (2.0 * theta)) if theta > 0.0 else 1.0

    value, _ = integrate.quad(truncation, 0.0, r, weight="alg", wvar=(q - 0.5, -0.5))
    return value / math.pi


def arcsine_moment(r: float, q: float) -> float:
    """E[theta_r^q] under the arcsine law: r^q Gamma(q + 1/2) / (sqrt(pi) Gamma(q + 1))."""
    return r**q * math.exp(math.lgamma(q + 0.5) - math.lgamma(q + 1.0)) / math.sqrt(math.pi)
