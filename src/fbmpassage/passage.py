"""First-passage detection on discrete paths.

Two detectors are provided.  The simple one records the first grid point at
or above the threshold and misses excursions between grid points, so its
passage times are biased late.  The bridge detector additionally fires
inside a step with the conditional crossing probability of a pinned bridge,
p = exp(-2 * (threshold - x_prev) * (threshold - x_next) / step^{2H}),
which is the exact Brownian bridge correction at H = 1/2 and a heuristic
extension for H > 1/2 (the mesh variance step is replaced by step^{2H}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fgn import Hurst

__all__ = [
    "PassageOutcome",
    "first_passage",
    "bridge_crossing_prob",
    "first_passage_bridge",
]


@dataclass(frozen=True)
class PassageOutcome:
    """Result of scanning one path against a threshold.

    A hit stores the grid index and time (hit_time = hit_index * step); a
    censored outcome has both set to None and means the path stayed below
    the threshold through the horizon.
    """

    hit_index: int | None
    hit_time: float | None
    horizon: float

    def __post_init__(self):
        if (self.hit_index is None) != (self.hit_time is None):
            raise ValueError("hit_index and hit_time must be both set or both None")
        if self.hit_time is not None and not 0.0 <= self.hit_time <= self.horizon:
            raise ValueError(f"hit time {self.hit_time} outside [0, {self.horizon}]")

    @property
    def is_hit(self) -> bool:
        return self.hit_index is not None


def _path_arrays(path) -> tuple[np.ndarray, float, int]:
    values = path.values
    if not np.isfinite(values).all():
        raise ValueError("path contains non-finite values")
    return values, path.grid.step, path.grid.steps


def first_passage(path, threshold: float) -> PassageOutcome:
    """First grid index where the path reaches or exceeds the threshold.

    Comparison is >= so a path that touches the threshold exactly on a grid
    point counts as a hit at that point.  Index 0 is eligible.
    """
    values, step, steps = _path_arrays(path)
    mask = values >= threshold
    if not mask.any():
        return PassageOutcome(None, None, path.grid.horizon)
    n = int(mask.argmax())
    return PassageOutcome(n, n * step, path.grid.horizon)


def bridge_crossing_prob(
    x_prev: float, x_next: float, threshold: float, step: float, h: Hurst
) -> float:
    """Crossing probability of one step given both endpoints below threshold.

    exp(-2 * (threshold - x_prev) * (threshold - x_next) / step^{2H}).
    Exact for a Brownian bridge at H = 1/2; for H > 1/2 the denominator
    uses the fractional mesh variance step^{2H} as a heuristic.  Tends to 1
    as either endpoint approaches the threshold and to 0 as the step
    shrinks.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive, got {step}")
    if x_prev >= threshold or x_next >= threshold:
        raise ValueError(
            f"both endpoints must lie strictly below the threshold, "
            f"got {x_prev}, {x_next} vs {threshold}"
        )
    return float(
        np.exp(-2.0 * (threshold - x_prev) * (threshold - x_next) / step ** (2.0 * h.value))
    )


def _bridge_hit_index(
    values: np.ndarray, threshold: float, step_var: float, uniforms: np.ndarray
) -> int:
    """First firing index under the combined grid/bridge rule, -1 if none.

    uniforms[j] is compared against the bridge probability of step j+1.
    This scan reads the whole grid; it is the reference for the bounded
    batch scan.  Only the uniforms of steps before the plain hit can decide
    the outcome, so the batch scan never draws the others; a path's
    generator would give them the same values if it did.
    """
    if values[0] >= threshold:
        return 0
    prev = values[:-1]
    nxt = values[1:]
    grid_hit = nxt >= threshold
    # log-space comparison: U < exp(arg) <=> arg > log U.  Entries at or
    # after a grid hit may have arg > 0; they never precede the first hit,
    # so they cannot affect the argmax below.
    arg = -2.0 * (threshold - prev) * (threshold - nxt) / step_var
    with np.errstate(divide="ignore"):
        fire = grid_hit | (arg > np.log(uniforms))
    if not fire.any():
        return -1
    return int(fire.argmax()) + 1


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


def _bridge_draws(plain_index: np.ndarray) -> np.ndarray:
    """Uniforms a row's bridge scan reads: one per step before its plain hit.

    A row that starts at or above the threshold reads none, a censored row
    reads one per step.
    """
    return np.maximum(plain_index - 1, 0)  # plain_index <= steps + 1


def _simple_hit_times_batch(values: np.ndarray, threshold: float, step: float) -> np.ndarray:
    """Hit times for a (paths, steps+1) matrix; +inf marks censored rows.

    The plain rule in one call.  The runner composes the same two helpers
    itself, since its bridge scan also needs the index; perfbench's tracer
    still hooks this name.
    """
    return _grid_times(_plain_hit_index(values, threshold), values.shape[1] - 1, step)


def _bridge_hit_times_batch(
    values: np.ndarray,
    threshold: float,
    step: float,
    step_var: float,
    log_uniforms: np.ndarray,
    plain_index: np.ndarray,
) -> np.ndarray:
    """Bridge-rule hit times for a (paths, steps+1) matrix; +inf marks censored rows.

    Rowwise the same arithmetic as _bridge_hit_index, but each row is
    scanned on its own and only up to its plain hit, `plain_index` from
    _plain_hit_index: no bridge time can exceed the plain time.
    log_uniforms[r, j] is log U for step j+1 of row r; only the first
    _bridge_draws(plain_index) entries of a row are read, and the rest may
    hold anything.
    """
    steps = values.shape[1] - 1
    times = _grid_times(plain_index, steps, step)
    rows = np.flatnonzero(plain_index > 1)
    # before its plain hit, at most at steps + 1, only the bridge can fire
    for r, stop in zip(rows.tolist(), plain_index[rows].tolist()):
        gap = threshold - values[r, :stop]
        fire = -2.0 * gap[:-1] * gap[1:] / step_var > log_uniforms[r, : stop - 1]
        j = fire.argmax()
        if fire[j]:
            times[r] = (j + 1) * step
    return times


def first_passage_bridge(
    path, threshold: float, rng: np.random.Generator
) -> PassageOutcome:
    """First passage with the bridge-crossing correction.

    Scans the grid in order; at each step a grid hit (value >= threshold)
    wins, otherwise the step fires with bridge_crossing_prob.  A bridge
    firing is recorded at the right endpoint of its step.  One uniform per
    step is drawn from `rng`, in step order, for the steps before the plain
    hit only: later uniforms cannot change the outcome, so they are never
    drawn, and a path's own generator would give them the same values if
    they were.  The number drawn thus depends on where the path crosses:
    a generator shared by several paths leaves each later path a different
    part of its stream than a full grid per path would, so their bridge
    times differ from those of versions that drew the full grid.

    Hit times satisfy bridge <= simple on the same path by construction:
    every simple hit is also a bridge firing opportunity.
    """
    values, step, steps = _path_arrays(path)
    draws = int(_bridge_draws(_plain_hit_index(values[None, :], threshold))[0])
    uniforms = np.ones(steps)  # entries from the plain hit on cannot change the outcome
    uniforms[:draws] = rng.random(draws)
    step_var = step ** (2.0 * path.hurst.value)
    n = _bridge_hit_index(values, threshold, step_var, uniforms)
    if n < 0:
        return PassageOutcome(None, None, path.grid.horizon)
    return PassageOutcome(n, n * step, path.grid.horizon)
