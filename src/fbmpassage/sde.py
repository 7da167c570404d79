"""Scalar SDE reduction and Euler stepping on the reduced equation.

A one-dimensional equation dX = b(X) dt + sigma(X) dB is reduced to unit
diffusion through the increasing map F(x) = integral of 1/sigma from x0 to
x.  The reduced process Y = F(X) solves dY = b~(Y) dt + dB with
b~ = (b o F^-1) / (sigma o F^-1), so path functionals of X below a level L
become functionals of Y below F(L).  Every registry model is affine,
b(x) = a x + c with constant sigma = s, so F(x) = (x - x0) / s exactly and
`affine_euler` steps the reduced drift a y + (a x0 + c) / s on a block of
paths.  For state-dependent sigma, `build_lamperti` tabulates F by
quadrature with a cubic spline inverse; no CLI run takes that path.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fgn import FbmPath, Hurst, TimeGrid

__all__ = [
    "EllipticityError",
    "PropagationError",
    "Coefficients",
    "LampertiMap",
    "XPath",
    "build_lamperti",
    "threshold_transform",
    "euler_solve",
    "affine_euler",
    "inverse_path",
    "affine_coefficients",
    "drift_from_name",
    "diffusion_from_name",
    "DRIFT_NAMES",
    "DIFFUSION_NAMES",
]

logger = logging.getLogger(__name__)

# quadrature tolerance per tabulation interval; intervals are tiny so the
# attained accuracy is far better in practice
_QUAD_TOL = 1e-12
_DEFAULT_NODES = 4097


class EllipticityError(ValueError):
    """Raised when |sigma| drops below the configured ellipticity floor."""


class PropagationError(ArithmeticError):
    """Raised when Euler propagation of the reduced drift turns non-finite."""


@dataclass(frozen=True)
class Coefficients:
    """Drift and diffusion callables plus the ellipticity floor sigma_0 > 0.

    Both callables must accept scalars and numpy arrays elementwise.  The
    floor is enforced wherever sigma is evaluated.
    """

    drift: Callable
    diffusion: Callable
    diffusion_floor: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.diffusion_floor) and self.diffusion_floor > 0.0):
            raise ValueError(f"diffusion floor must be positive, got {self.diffusion_floor}")


@dataclass(frozen=True, eq=False)
class XPath:
    """A solution path on a grid, starting from x0 = values[0]."""

    values: np.ndarray
    grid: TimeGrid
    hurst: Hurst
    x0: float

    def __post_init__(self):
        if self.values.ndim != 1 or len(self.values) != self.grid.steps + 1:
            raise ValueError(
                f"expected {self.grid.steps + 1} values, got shape {self.values.shape}"
            )


class LampertiMap:
    """Tabulated reduction map F with its inverse and the reduced drift.

    Inside the tabulated range both directions evaluate through cubic
    splines on quadrature-exact nodes.  Outside, F is extended linearly
    with the boundary slope 1/sigma(boundary); the first such evaluation on
    each side is logged as a warning since extrapolated drift values are
    approximations.
    """

    def __init__(self, coefficients: Coefficients, x0: float, x_nodes: np.ndarray, f_values: np.ndarray):
        from scipy.interpolate import CubicSpline

        self.coefficients = coefficients
        self.x0 = float(x0)
        self.x_lo = float(x_nodes[0])
        self.x_hi = float(x_nodes[-1])
        self._x_nodes = x_nodes
        self._f_values = f_values
        self._fwd = CubicSpline(x_nodes, f_values)
        if f_values[-1] > f_values[0]:
            self._inv = CubicSpline(f_values, x_nodes)
        else:
            self._inv = CubicSpline(f_values[::-1], x_nodes[::-1])
        self.f_lo = float(f_values[0])
        self.f_hi = float(f_values[-1])
        self._slope_lo = 1.0 / self._sigma_checked(self.x_lo)
        self._slope_hi = 1.0 / self._sigma_checked(self.x_hi)
        self._warned = {"lo": False, "hi": False}

    # -- internal helpers ---------------------------------------------------

    def _sigma_checked(self, x):
        s = self.coefficients.diffusion(x)
        if np.min(np.abs(s)) < self.coefficients.diffusion_floor:
            raise EllipticityError(
                f"|sigma| fell below the floor {self.coefficients.diffusion_floor} "
                f"near x={np.asarray(x).ravel()[np.argmin(np.abs(s))]}"
            )
        return s

    def _warn_extension(self, side: str, where: str):
        if not self._warned[side]:
            self._warned[side] = True
            logger.warning(
                "Lamperti %s evaluated outside the tabulated range (%s side); "
                "extending linearly with the boundary slope",
                where,
                side,
            )

    # -- public surface -----------------------------------------------------

    def forward(self, x):
        """F(x); linear extension with slope 1/sigma(boundary) off-range."""
        xa = np.asarray(x, dtype=float)
        below = xa < self.x_lo
        above = xa > self.x_hi
        out = self._fwd(np.clip(xa, self.x_lo, self.x_hi))
        if below.any():
            self._warn_extension("lo", "forward")
            out = np.where(below, self.f_lo + (xa - self.x_lo) * self._slope_lo, out)
        if above.any():
            self._warn_extension("hi", "forward")
            out = np.where(above, self.f_hi + (xa - self.x_hi) * self._slope_hi, out)
        return float(out) if out.ndim == 0 else out

    def inverse(self, y):
        """F^-1(y), consistent with the same linear extension off-range."""
        ya = np.asarray(y, dtype=float)
        f_min, f_max = min(self.f_lo, self.f_hi), max(self.f_lo, self.f_hi)
        out = self._inv(np.clip(ya, f_min, f_max))
        increasing = self.f_hi > self.f_lo
        lo_side = ya < f_min
        hi_side = ya > f_max
        below = lo_side if increasing else hi_side   # maps to x < x_lo
        above = hi_side if increasing else lo_side   # maps to x > x_hi
        if below.any():
            self._warn_extension("lo", "inverse")
            out = np.where(below, self.x_lo + (ya - self.f_lo) / self._slope_lo, out)
        if above.any():
            self._warn_extension("hi", "inverse")
            out = np.where(above, self.x_hi + (ya - self.f_hi) / self._slope_hi, out)
        return float(out) if out.ndim == 0 else out

    def reduced_drift(self, y):
        """b~(y) = b(F^-1(y)) / sigma(F^-1(y)), ellipticity-checked."""
        x = self.inverse(y)
        s = self._sigma_checked(x)
        return self.coefficients.drift(x) / s


def build_lamperti(
    coefficients: Coefficients,
    x0: float,
    x_range: tuple[float, float],
    nodes: int = _DEFAULT_NODES,
) -> LampertiMap:
    """Tabulate the reduction map F on x_range, anchored so F(x0) = 0.

    Args:
        coefficients: drift/diffusion pair with ellipticity floor.
        x0: anchor point, must lie inside x_range; it becomes a tabulation
            node so the anchor is exact.
        x_range: (lo, hi) tabulation window; passage thresholds and the
            bulk of the simulated paths should fit inside it.
        nodes: total tabulation nodes (quadrature runs once per interval).

    Returns:
        LampertiMap with forward/inverse accurate to ~1e-12 on the window.
    """
    from scipy.integrate import quad

    lo, hi = float(x_range[0]), float(x_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid tabulation range ({lo}, {hi})")
    if not lo <= x0 <= hi:
        raise ValueError(f"anchor x0={x0} outside tabulation range ({lo}, {hi})")
    if nodes < 16:
        raise ValueError(f"need at least 16 tabulation nodes, got {nodes}")

    frac = (x0 - lo) / (hi - lo)
    n_left = int(round((nodes - 1) * frac))
    if x0 > lo:
        n_left = max(n_left, 8)
    if x0 < hi:
        n_left = min(n_left, nodes - 9)
    n_right = nodes - 1 - n_left
    left = np.linspace(lo, x0, n_left + 1) if n_left > 0 else np.array([x0])
    right = np.linspace(x0, hi, n_right + 1) if n_right > 0 else np.array([x0])
    x_nodes = np.concatenate([left[:-1], right]) if n_left > 0 else right

    sigma = coefficients.diffusion(x_nodes)
    if not np.all(np.isfinite(sigma)):
        raise ValueError("diffusion returned non-finite values on the tabulation grid")
    worst = np.argmin(np.abs(sigma))
    if abs(sigma[worst]) < coefficients.diffusion_floor:
        raise EllipticityError(
            f"|sigma({x_nodes[worst]})| = {abs(sigma[worst]):.3e} below the floor "
            f"{coefficients.diffusion_floor}"
        )
    if np.any(np.sign(sigma) != np.sign(sigma[0])):
        raise ValueError("diffusion changes sign on the tabulation range")

    integrand = lambda u: 1.0 / coefficients.diffusion(u)
    inc = np.empty(len(x_nodes) - 1)
    for i in range(len(inc)):
        inc[i], _ = quad(
            integrand, x_nodes[i], x_nodes[i + 1], epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=100
        )
    anchor = n_left  # index of x0 in x_nodes
    f_values = np.empty(len(x_nodes))
    f_values[anchor] = 0.0
    if anchor < len(inc) + 1:
        f_values[anchor + 1 :] = np.cumsum(inc[anchor:])
    if anchor > 0:
        f_values[:anchor] = -np.cumsum(inc[:anchor][::-1])[::-1]
    return LampertiMap(coefficients, x0, x_nodes, f_values)


def threshold_transform(lamperti: LampertiMap, threshold: float) -> float:
    """Map a passage threshold into reduced coordinates, F(threshold).

    The threshold must lie inside the tabulated range; extrapolating a
    passage level would silently distort every passage time downstream.
    """
    if not lamperti.x_lo <= threshold <= lamperti.x_hi:
        raise ValueError(
            f"threshold {threshold} outside tabulated range "
            f"({lamperti.x_lo}, {lamperti.x_hi})"
        )
    return float(lamperti.forward(threshold))


# ---------------------------------------------------------------------------
# Euler scheme in reduced coordinates
# ---------------------------------------------------------------------------

def euler_solve(reduced_drift: Callable, x0: float, path: FbmPath) -> XPath:
    """Euler scheme Y_{n+1} = Y_n + b~(Y_n) * step + dB_n in reduced coordinates.

    The drift contribution is accumulated separately from the Gaussian
    prefix sums, so with a zero drift the output equals x0 + path values
    bit for bit.  Raises on the first non-finite drift evaluation with the
    offending step index.
    """
    values = path.values
    if not np.isfinite(values).all():
        raise ValueError("driving path contains non-finite values")
    step = path.grid.step
    out = np.empty(len(values))
    acc = 0.0
    y = x0 + values[0] + acc
    out[0] = y
    for n in range(path.grid.steps):
        d = float(reduced_drift(y))
        if not math.isfinite(d):
            raise PropagationError(f"drift propagation failed: non-finite drift at step {n} (y={y})")
        acc += step * d
        y = x0 + values[n + 1] + acc
        out[n + 1] = y
    return XPath(out, path.grid, path.hurst, float(x0))


def affine_euler(values: np.ndarray, a: float, c: float, step: float) -> np.ndarray:
    """Euler scheme for dY = (a Y + c) dt + dB across the rows of a (paths, steps+1) block.

    `values` holds the prefix sums of the noise, starting at zero, and is
    overwritten with the solution, so no second path buffer is needed.  The
    drift is accumulated apart from the noise, as in euler_solve:
    acc += step * (a y + c), then y = noise + acc.  The column views are
    built once, and the ufuncs take positional outputs, so a grid step
    costs four ufunc calls, or five when c != 0.  Skipping `+ c` for
    c == 0 changes no bit: acc starts at +0.0 and a sum is -0.0 only when
    both terms are, so acc is never -0.0, and adding a drift of -0.0 or
    +0.0 to it gives the same value.  Raises on a non-finite state with
    the first offending step index; returns `values`.
    """
    acc = np.zeros(values.shape[0])
    drift = np.empty_like(acc)
    columns = list(values.T)
    for previous, current in zip(columns, columns[1:]):
        np.multiply(previous, a, drift)
        if c != 0.0:
            np.add(drift, c, drift)
        np.multiply(drift, step, drift)
        np.add(acc, drift, acc)
        np.add(current, acc, current)
    if not np.isfinite(values).all():
        bad_step = int((~np.isfinite(values)).any(axis=0).argmax())
        raise PropagationError(f"drift propagation failed: non-finite state at step {bad_step}")
    return values


def inverse_path(lamperti: LampertiMap, path: XPath) -> XPath:
    """Map a reduced-coordinate path back through F^-1 to original coordinates."""
    values = lamperti.inverse(path.values)
    return XPath(values, path.grid, path.hurst, float(values[0]))


# ---------------------------------------------------------------------------
# named coefficient registry (CLI surface)
# ---------------------------------------------------------------------------

DRIFT_NAMES = ("zero", "linear", "ou")
DIFFUSION_NAMES = ("one", "const")


def _parse_spec(spec: str, n_params: dict[str, int], kind: str) -> tuple[str, list[float]]:
    name, _, tail = spec.partition(":")
    name = name.strip()
    if name not in n_params:
        raise ValueError(f"unknown {kind} '{name}'; known: {', '.join(sorted(n_params))}")
    params = [float(p) for p in tail.split(",") if p.strip() != ""] if tail else []
    if len(params) != n_params[name]:
        raise ValueError(
            f"{kind} '{name}' takes {n_params[name]} parameter(s), got {len(params)}"
        )
    if not all(np.isfinite(params)):
        raise ValueError(f"{kind} '{name}' received non-finite parameters {params}")
    return name, params


def _drift_line(spec: str) -> tuple[float, float]:
    name, params = _parse_spec(spec, {"zero": 0, "linear": 2, "ou": 1}, "drift")
    if name == "ou":
        return -params[0], 0.0
    return (params[0], params[1]) if name == "linear" else (0.0, 0.0)


def _diffusion_level(spec: str) -> float:
    name, params = _parse_spec(spec, {"one": 0, "const": 1}, "diffusion")
    s = params[0] if name == "const" else 1.0
    if s <= 0.0:
        raise ValueError(f"constant diffusion must be positive, got {s}")
    return s


def affine_coefficients(drift: str, diffusion: str) -> tuple[float, float, float]:
    """(a, c, s) of a registry model: drift b(x) = a x + c, diffusion sigma = s > 0."""
    return (*_drift_line(drift), _diffusion_level(diffusion))


def drift_from_name(spec: str) -> Callable:
    """Drift callable from a registry spec: 'zero', 'linear:a,c' or 'ou:k'."""
    a, c = _drift_line(spec)
    return lambda x: a * x + c


def diffusion_from_name(spec: str) -> Callable:
    """Diffusion callable from a registry spec: 'one' or 'const:s' with s > 0."""
    s = _diffusion_level(spec)
    return lambda x: x * 0.0 + s
