"""First-passage detection on blocks of discrete paths.

The plain rule records the first grid point at or above the threshold and
misses excursions between grid points, so its passage times are biased
late.  The bridge rule additionally fires inside a step with the
conditional crossing probability of a pinned bridge,
p = exp(-2 * (threshold - x_prev) * (threshold - x_next) / step^{2H}),
which is the exact Brownian bridge correction at H = 1/2 and a heuristic
extension for H > 1/2 (the mesh variance step is replaced by step^{2H}).
_bridge_hit_times_batch, the runner's scan, is the one implementation of p
(in log space); its full-grid reference lives with the passage tests.  Both
scans work on (paths, steps+1) blocks and return +inf for a path that never
crosses.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []


def _plain_hit_index(values: np.ndarray, threshold: float) -> np.ndarray:
    """First grid index at or above the threshold per row of a (paths, steps+1)
    matrix; steps + 1 on a row that never gets there."""
    mask = values >= threshold
    index = mask.argmax(axis=1)
    index[~mask[np.arange(len(index)), index]] = values.shape[1]
    return index


def _grid_times(index: np.ndarray, steps: int, step: float) -> np.ndarray:
    """index * step, with +inf where the index is past the grid (censored)."""
    return np.where(index <= steps, index * step, np.inf)


def _bridge_hit_times_batch(
    values: np.ndarray,
    threshold: float,
    step: float,
    step_var: float,
    log_uniforms,
    plain_index: np.ndarray,
) -> np.ndarray:
    """Bridge-rule hit times for a (paths, steps+1) matrix; +inf marks censored rows.

    Rowwise the same arithmetic as a full-grid scan, but each row is
    scanned on its own and only up to its plain hit, `plain_index` from
    _plain_hit_index: no bridge time can exceed the plain time.
    log_uniforms[r] holds row r's log-uniforms, entry j for step j+1: at
    least one per step before its plain hit, N on a censored row.  The scan
    reads only the rows whose plain hit is past index 1.
    """
    steps = values.shape[1] - 1
    times = _grid_times(plain_index, steps, step)
    rows = np.flatnonzero(plain_index > 1)
    # before its plain hit, at most at steps + 1, only the bridge can fire
    for r, stop in zip(rows.tolist(), plain_index[rows].tolist()):
        gap = threshold - values[r, :stop]
        fire = -2.0 * gap[:-1] * gap[1:] / step_var > log_uniforms[r][: stop - 1]
        j = fire.argmax()
        if fire[j]:
            times[r] = (j + 1) * step
    return times
