"""Exact laws of the bridge rule on the simulated grid, outside the package.

At H = 1/2 with no linear drift term (a = 0: pure fBm, `const:s`,
`linear:0,c`), the reduced scheme is Brownian motion with drift c sampled
on the grid: the Euler step adds c dt + dB exactly.  The bridge rule's
crossing probability exp(-2 (level - y)(level - y') / dt) is the exact
crossing probability of the Brownian bridge between two grid values,
whatever the drift, so the rule books tau_b = dt ceil(tau / dt), with tau
the continuous first passage to the level.  Its hit mass in step k is then
F(k dt) - F((k - 1) dt), where F is the law of the drifted Brownian first
passage,

    F(t) = Phi((c t - level) / sqrt t) + e^(2 c level) Phi((-c t - level) / sqrt t),

and its Laplace value on the horizon is the sum of e^(-lambda k dt) times
those masses.
"""

import math

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# Below this argument the reflected term is taken through the Gaussian
# density: Phi there is under 5e-198, and e^(2 c level) may overflow.
_TAIL = -30.0


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def _reflected_term(c: float, level: float, t: float) -> float:
    """e^(2 c level) Phi(z), z = (-c t - level) / sqrt t, finite for every c.

    For c > 0, z <= -2 sqrt(c level), so at z >= _TAIL the factor
    e^(2 c level) stays below e^450.  Below _TAIL, e^(2 c level) phi(z) =
    phi(w), with w = (c t - level) / sqrt t, and Phi(z) / phi(z) =
    (1 - 1/z^2 + 3/z^4 - 15/z^6) / |z| to a relative 105 / z^8 < 2e-10,
    so neither the exponential nor Phi(z) is formed.
    """
    root = math.sqrt(t)
    z = (-c * t - level) / root
    if z >= _TAIL:
        return math.exp(2.0 * c * level) * _normal_cdf(z)
    w = (c * t - level) / root
    inv = 1.0 / (z * z)
    return math.exp(-0.5 * w * w) / _SQRT2PI * (1.0 - inv + 3.0 * inv**2 - 15.0 * inv**3) / -z


def passage_cdf(c: float, level: float, t: float) -> float:
    """P(tau <= t) for Brownian motion with drift c from 0 to `level` > 0."""
    if t <= 0.0:
        return 0.0
    return _normal_cdf((c * t - level) / math.sqrt(t)) + _reflected_term(c, level, t)


def bridge_grid_masses(c: float, level: float, step: float, steps: int) -> list[float]:
    """The bridge rule's hit mass in each of the grid's `steps` steps of length `step`."""
    cdf = [passage_cdf(c, level, k * step) for k in range(steps + 1)]
    return [b - a for a, b in zip(cdf, cdf[1:])]


def bridge_grid_laplace(lam: float, c: float, level: float, step: float, steps: int) -> float:
    """E[exp(-lam tau_b); tau_b <= steps * step] of the bridge rule on the grid, at H = 1/2 and a = 0."""
    masses = bridge_grid_masses(c, level, step, steps)
    return sum(math.exp(-lam * k * step) * mass for k, mass in enumerate(masses, start=1))
