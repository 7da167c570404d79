"""Closed-form reduction of the registry models and block Euler stepping.

Every registry model is affine: dX = (a X + c) dt + s dB with a constant
diffusion s > 0.  The increasing map y = (x - x0) / s turns it into
dY = (a y + (a x0 + c) / s) dt + dB with unit diffusion, so path
functionals of X below a level L are functionals of Y below (L - x0) / s.
`affine_coefficients` reads (a, c, s) from a registry spec, `reduced_model`
gives the reduced drift and level, the one place that works them out, and
`affine_euler` steps the reduced equation in place on a block of paths.

Given a level and a last read column, `affine_euler` steps each row only
through the later of that column and the row's first state at or above
the level, which is all that the plain and bridge scans, marginals and
extremes read.  It raises PropagationError if and only if some row has a
non-finite state in that range, so states that overflow after every
row's passage no longer fail a run, and the outcome does not depend on
which rows share a block.
"""

from __future__ import annotations

import math
from itertools import pairwise

import numpy as np

__all__ = ["PropagationError", "affine_euler", "affine_coefficients", "reduced_model"]


class PropagationError(ArithmeticError):
    """Raised when Euler propagation of the reduced drift turns non-finite."""


# The block loop pays four ufunc calls per grid column, ~4-5.5 us on 256
# rows and ~4 us on 32 (2 vCPUs, numpy 2.4.6), while one row step in
# Python floats costs ~0.21 us.  A column is cheaper in the tail while at
# most ~20-26 rows are left, so the loop hands over at TAIL_ROWS.
TAIL_ROWS = 24
# Grid columns the block loop steps between two checks of which rows have
# reached the level.  A check of 256 rows costs ~45 us, ~0.35 us per
# column, and the loop runs at most this many columns past the hand-over.
CHECK_COLUMNS = 128
# Noise entries a tail row converts to Python floats at a time; each costs
# ~65 B while its piece is alive.  Pieces of 256 step as fast as whole rows.
TAIL_PIECE = 256


def _row_tail(row: np.ndarray, n: int, acc: float, a: float, c: float, step: float, level: float) -> int:
    """Step one row on from column n in Python floats; returns the last column written.

    `acc` is the row's accumulator after column n.  Each step is the block
    loop's arithmetic, acc += (a y + c) * step, then y = noise + acc, with
    the same IEEE operations in the same order; `+ c` with c = 0 changes
    no bit, as in `affine_euler`.  The row stops at its first state at or
    above `level`, at its last column, or at the end of the TAIL_PIECE
    piece that holds its first non-finite state; it converts at most
    TAIL_PIECE noise entries to Python floats at a time.  Every state after
    a non-finite one is non-finite too, so the caller's check of the last
    written state catches it and names the exact step.
    """
    y = float(row[n])
    last = len(row) - 1
    while n < last and not y >= level and math.isfinite(y):
        out = []
        for x in row[n + 1 : n + 1 + TAIL_PIECE].tolist():
            acc += (y * a + c) * step
            y = x + acc
            out.append(y)
            if y >= level:
                break
        row[n + 1 : n + 1 + len(out)] = out
        n += len(out)
    return n


def affine_euler(
    values: np.ndarray, a: float, c: float, step: float, level: float = -math.inf, read_to: int | None = None
) -> np.ndarray:
    """Euler scheme for dY = (a Y + c) dt + dB across the rows of a (paths, steps+1) block.

    `values` holds the prefix sums of the noise, starting at zero, and is
    overwritten with the solution, so no second path buffer is needed.  The
    drift is accumulated apart from the noise, acc += step * (a y + c),
    then y = noise + acc, so with a = c = 0 the output equals the noise.
    Each CHECK_COLUMNS batch walks views of its own columns, and the ufuncs
    take positional outputs, so a grid step costs four ufunc calls, or five
    when c != 0, and the loop holds nothing sized by the grid but `values`.
    Skipping `+ c` for c == 0 changes no bit: acc starts at +0.0 and a
    sum is -0.0 only when both terms are, so acc is never -0.0, and adding
    a drift of -0.0 or +0.0 to it gives the same value.

    A row's read range ends at the later of `read_to` (the last column by
    default) and its first state at or above `level`, or at its last
    column if it has none; states past it keep what the loop left there:
    the noise prefix sums, or states stepped on with the block.  The block
    steps CHECK_COLUMNS columns at a time, and after each batch drops the
    rows that have reached the level; once it is past `read_to` with at
    most TAIL_ROWS rows left, each of those finishes alone in Python floats
    (`_row_tail`), bit for bit the same states.

    Raises PropagationError, naming the first offending step, if and only
    if some row has a non-finite state in its read range.  A non-finite
    state makes the accumulator non-finite, and so every later state of its
    row, so the state at the end of each row's range decides.  Returns
    `values`.
    """
    last = values.shape[1] - 1
    read_to = last if read_to is None else read_to
    acc = np.zeros(values.shape[0])
    drift = np.empty_like(acc)
    stop = np.full(len(acc), last)  # each row's last read column
    below = np.ones(len(acc), dtype=bool)  # rows not yet seen at or above the level
    mask = np.empty((len(acc), min(CHECK_COLUMNS, last) + 1), dtype=bool)
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while n < last and (n < read_to or np.count_nonzero(below) > TAIL_ROWS):
            end = min(n + CHECK_COLUMNS, last)
            for previous, current in pairwise(values[:, n : end + 1].T):
                np.multiply(previous, a, drift)
                if c != 0.0:
                    np.add(drift, c, drift)
                np.multiply(drift, step, drift)
                np.add(acc, drift, acc)
                np.add(current, acc, current)
            if below.any():
                reached = np.greater_equal(values[:, n : end + 1], level, out=mask[:, : end + 1 - n])
                hit = below & reached.any(axis=1)
                stop[hit] = np.maximum(n + reached[hit].argmax(axis=1), read_to)
                below &= ~hit
            n = end
    if n < last:
        rows = np.flatnonzero(below)
        for r, acc_r in zip(rows.tolist(), acc[rows].tolist()):
            stop[r] = _row_tail(values[r], n, acc_r, a, c, step, level)
    bad = np.flatnonzero(~np.isfinite(values[np.arange(len(stop)), stop]))
    if len(bad):
        first = min(int(np.isfinite(values[r, : stop[r] + 1]).argmin()) for r in bad.tolist())
        raise PropagationError(f"drift propagation failed: non-finite state at step {first}")
    return values


# ---------------------------------------------------------------------------
# named coefficient registry (CLI surface)
# ---------------------------------------------------------------------------

# name -> (parameter count, map from the parameters to (a, c) of the drift a x + c)
_DRIFTS = {"zero": (0, lambda: (0.0, 0.0)), "linear": (2, lambda a, c: (a, c)), "ou": (1, lambda k: (-k, 0.0))}
# name -> (parameter count, map from the parameter to the constant diffusion s)
_DIFFUSIONS = {"one": (0, lambda: 1.0), "const": (1, lambda s: s)}


def _parse_spec(spec: str, registry: dict, kind: str):
    """The registry's map of the model that `spec` names, "name" or "name:p1,p2", applied to its parameters."""
    name, _, tail = spec.partition(":")
    name = name.strip()
    if name not in registry:
        raise ValueError(f"unknown {kind} '{name}'; known: {', '.join(sorted(registry))}")
    count, coefficients = registry[name]
    params = [float(p) for p in tail.split(",") if p.strip() != ""] if tail else []
    if len(params) != count:
        raise ValueError(f"{kind} '{name}' takes {count} parameter(s), got {len(params)}")
    if not all(np.isfinite(params)):
        raise ValueError(f"{kind} '{name}' received non-finite parameters {params}")
    return coefficients(*params)


def affine_coefficients(drift: str, diffusion: str) -> tuple[float, float, float]:
    """(a, c, s) of a registry model: drift b(x) = a x + c, diffusion sigma = s > 0."""
    a, c = _parse_spec(drift, _DRIFTS, "drift")
    s = _parse_spec(diffusion, _DIFFUSIONS, "diffusion")
    if s <= 0.0:
        raise ValueError(f"constant diffusion must be positive, got {s}")
    return a, c, s


def reduced_model(drift: str, diffusion: str, x0: float, threshold: float) -> tuple[float, float, float, float]:
    """(a, c~, s, level): y = (x - x0) / s has drift a y + c~, unit diffusion and level (threshold - x0) / s."""
    a, c, s = affine_coefficients(drift, diffusion)
    return a, (a * x0 + c) / s, s, (threshold - x0) / s
