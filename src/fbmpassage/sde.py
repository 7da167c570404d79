"""Closed-form reduction of the registry models and block Euler stepping.

Every registry model is affine: dX = (a X + c) dt + s dB with a constant
diffusion s > 0.  The increasing map y = (x - x0) / s turns it into
dY = (a y + (a x0 + c) / s) dt + dB with unit diffusion, so path
functionals of X below a level L are functionals of Y below (L - x0) / s.
`affine_coefficients` reads (a, c, s) from a registry spec, and
`affine_euler` steps the reduced equation in place on a block of paths.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PropagationError", "affine_euler", "affine_coefficients"]


class PropagationError(ArithmeticError):
    """Raised when Euler propagation of the reduced drift turns non-finite."""


def affine_euler(values: np.ndarray, a: float, c: float, step: float) -> np.ndarray:
    """Euler scheme for dY = (a Y + c) dt + dB across the rows of a (paths, steps+1) block.

    `values` holds the prefix sums of the noise, starting at zero, and is
    overwritten with the solution, so no second path buffer is needed.  The
    drift is accumulated apart from the noise, acc += step * (a y + c),
    then y = noise + acc, so with a = c = 0 the output equals the noise.
    The column views are built once, and the ufuncs take positional
    outputs, so a grid step costs four ufunc calls, or five when c != 0.
    Skipping `+ c` for c == 0 changes no bit: acc starts at +0.0 and a
    sum is -0.0 only when both terms are, so acc is never -0.0, and adding
    a drift of -0.0 or +0.0 to it gives the same value.  Raises on a
    non-finite state with the first offending step index; returns `values`.
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


# ---------------------------------------------------------------------------
# named coefficient registry (CLI surface)
# ---------------------------------------------------------------------------

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
