"""Threshold detectors: grid scan and bridge-corrected scan.

Covers:
  - Grid detector on crafted paths: first crossing index, censoring,
    boundary hit at index 0.
  - Per-step bridge crossing probability against frozen constants and its
    limiting behavior.
  - Bridge scan semantics: grid hits fire regardless of the uniforms, a
    remote threshold censors, recorded times are right-endpoint multiples
    of the mesh, bridge times never exceed grid times on the same path.
  - The batch bridge scan stops at each row's plain hit and draws no
    uniform past it, yet equals the full scalar scan on crafted rows: a
    censored row, a start at the level, a hit at index 1, a bridge firing
    one step before the plain hit, a grid value equal to the level, early
    and late in the grid.
  - Distributional check at H = 1/2: the bridge hit time matches the exact
    ceiling-law value computed from the closed-form passage distribution.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from fbmpassage import (
    FbmPath,
    Hurst,
    TimeGrid,
    bridge_crossing_prob,
    first_passage,
    first_passage_bridge,
    laplace_from_times,
    passage_times,
)
from fbmpassage.passage import (
    _bridge_draws,
    _bridge_hit_index,
    _bridge_hit_times_batch,
    _plain_hit_index,
    _simple_hit_times_batch,
)


def _path(values, horizon=None):
    values = np.asarray(values, dtype=float)
    steps = len(values) - 1
    grid = TimeGrid(horizon if horizon is not None else float(steps), steps)
    return FbmPath(values, grid, Hurst(0.5))


# ---------------------------------------------------------------------------
# grid detector
# ---------------------------------------------------------------------------

def test_first_passage_crossing_index():
    out = first_passage(_path([0.0, 0.5, 1.2, 0.8]), 1.0)
    assert out.is_hit
    assert out.hit_index == 2
    assert out.hit_time == 2.0


def test_first_passage_touch_counts():
    out = first_passage(_path([0.0, 1.0, 0.5]), 1.0)
    assert out.hit_index == 1


def test_first_passage_censored():
    out = first_passage(_path([0.0, 0.4, 0.9, 0.99]), 1.0)
    assert not out.is_hit
    assert out.hit_index is None and out.hit_time is None


def test_first_passage_boundary_start():
    out = first_passage(_path([0.0, -1.0, -2.0]), 0.0)
    assert out.hit_index == 0
    assert out.hit_time == 0.0


def test_first_passage_rejects_non_finite():
    with pytest.raises(ValueError):
        first_passage(_path([0.0, np.nan, 1.0]), 1.0)


# ---------------------------------------------------------------------------
# per-step bridge probability
# ---------------------------------------------------------------------------

def test_bridge_prob_brownian_point():
    # exp(-2 * 0.1 * 0.05 / 0.01) = exp(-1)
    p = bridge_crossing_prob(0.9, 0.95, 1.0, 0.01, Hurst(0.5))
    assert p == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_bridge_prob_fractional_point():
    # exp(-0.01 / 0.01^{1.2}) = exp(-0.01^{-0.2}) = exp(-10^{0.4})
    p = bridge_crossing_prob(0.9, 0.95, 1.0, 0.01, Hurst(0.6))
    assert p == pytest.approx(math.exp(-(10.0**0.4)), abs=1e-12)
    assert p == pytest.approx(0.0811151, abs=1e-6)


def test_bridge_prob_limits():
    h = Hurst(0.5)
    near = bridge_crossing_prob(0.5, 1.0 - 1e-12, 1.0, 0.01, h)
    assert near > 1.0 - 1e-9  # vanishing gap forces a crossing
    tiny_step = bridge_crossing_prob(0.5, 0.5, 1.0, 1e-8, h)
    assert tiny_step < 1e-300 or tiny_step == 0.0
    with pytest.raises(ValueError):
        bridge_crossing_prob(1.0, 0.5, 1.0, 0.01, h)  # endpoint at threshold
    with pytest.raises(ValueError):
        bridge_crossing_prob(0.5, 0.5, 1.0, 0.0, h)


def test_bridge_prob_zero_path_step():
    # a flat path far from the threshold fires with probability exp(-2 / step^{2H})
    p = bridge_crossing_prob(0.0, 0.0, 1.0, 0.1, Hurst(0.5))
    assert p == pytest.approx(math.exp(-20.0), rel=1e-12)


# ---------------------------------------------------------------------------
# bridge scan semantics
# ---------------------------------------------------------------------------

class _ConstRng:
    """Deterministic stand-in: every uniform equals the given value."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


def test_bridge_grid_hit_fires_regardless_of_uniforms():
    path = _path([0.0, 0.5, 1.2, 0.8])
    out = first_passage_bridge(path, 1.0, _ConstRng(1.0 - 1e-12))
    assert out.hit_index == 2


def test_bridge_remote_threshold_censors():
    path = _path([0.0, 0.01, -0.02, 0.005], horizon=0.003)
    out = first_passage_bridge(path, 50.0, _ConstRng(0.5))
    assert not out.is_hit


def test_bridge_fires_between_grid_points():
    # close approach: p = exp(-2 * 0.05 * 0.05 / 0.01) = exp(-0.5) ~ 0.607
    path = _path([0.0, 0.95, 0.95, 0.0], horizon=0.03)
    hit = first_passage_bridge(path, 1.0, _ConstRng(0.5))
    missed = first_passage_bridge(path, 1.0, _ConstRng(0.7))
    assert hit.hit_index == 2  # fired on the step between the two 0.95 values
    assert hit.hit_time == pytest.approx(2 * 0.01)
    assert not missed.is_hit


def test_bridge_time_is_right_endpoint_multiple():
    h, grid = Hurst(0.5), TimeGrid(10.0, 1024)
    times = passage_times(h, grid, 300, 424242, estimators=("bridge",))["bridge"]
    finite = times[np.isfinite(times)]
    assert len(finite) > 0
    ratio = finite / grid.step
    assert np.max(np.abs(ratio - np.round(ratio))) < 1e-9


def test_bridge_never_later_than_simple():
    times = passage_times(
        Hurst(0.6), TimeGrid(10.0, 1024), 400, 777, estimators=("simple", "bridge")
    )
    assert np.all(times["bridge"] <= times["simple"] + 1e-12)
    finite = np.isfinite(times["simple"])
    strictly = (times["bridge"][finite] < times["simple"][finite]).sum()
    assert strictly > 0, "bridge should fire early on some paths"


def test_batch_detectors_match_scalar_path_scan():
    rng = np.random.default_rng(909)
    grid = TimeGrid(4.0, 64)
    values = np.cumsum(
        np.concatenate([np.zeros((40, 1)), rng.normal(0.0, 0.4, (40, 64))], axis=1),
        axis=1,
    )
    simple = _simple_hit_times_batch(values, 1.0, grid.step)
    uniforms = rng.random((40, 64))
    step_var = grid.step
    bridged = _bridge_hit_times_batch(
        values, 1.0, grid.step, step_var, np.log(uniforms), _plain_hit_index(values, 1.0)
    )
    for i in range(40):
        path = FbmPath(values[i], grid, Hurst(0.5))
        out = first_passage(path, 1.0)
        want = out.hit_time if out.is_hit else np.inf
        assert simple[i] == want
        assert bridged[i] <= simple[i] + 1e-12


def _crafted_rows():
    """Rows far below the level 1 except where a case puts a feature, and
    uniforms that fire the bridge only next to a 0.95 pair when they are 0.1.

    Returns (values, uniforms, step_var); features sit both early and late
    in the grid.
    """
    late = 32
    steps = late + 64
    values = np.full((13, steps + 1), -3.0)
    values[:, 0] = 0.0
    uniforms = np.full((13, steps), 0.5)
    # row 0: censored; row 1: censored, the bridge fires late
    values[1, late + 30 : late + 32] = 0.95
    uniforms[1, late + 30] = 0.1
    # row 2: starts at the level; row 3: plain hit at index 1
    values[2, 0] = 1.0
    values[3, 1] = 1.5
    # rows 4 and 5: the bridge fires at step k - 1, one before the plain hit k
    for r, k in ((4, 10), (5, late + 40)):
        values[r, k - 2 : k] = 0.95
        values[r, k] = 1.2
        uniforms[r, k - 2] = 0.1
    # rows 6 and 7: a grid value exactly at the level
    values[6, 7] = 1.0
    values[7, late + 5] = 1.0
    # row 8: the bridge fires on the one step before a plain hit at 2;
    # row 9: a near miss before a late plain hit; row 10: a hit at the last step
    values[8, 1] = 0.999
    uniforms[8, 0] = 0.1
    values[8, 2] = 2.0
    values[9, late + 20 : late + 22] = 0.95
    uniforms[9, late + 20] = 0.9
    values[9, late + 50] = 1.1
    values[10, steps] = 1.0
    # row 11: an early bridge firing, long before a late plain hit
    values[11, 3:5] = 0.95
    uniforms[11, 3] = 0.1
    values[11, late + 10] = 3.0
    # row 12: the bridge fires on step 2, one before the plain hit at 3
    values[12, 1:3] = 0.95
    uniforms[12, 1] = 0.1
    values[12, 3] = 1.5
    return values, uniforms, 0.01


def test_bounded_bridge_scan_equals_full_scan():
    values, uniforms, step_var = _crafted_rows()
    step = 0.5
    plain = _plain_hit_index(values, 1.0)
    full = []
    for row, u in zip(values, uniforms):
        n = _bridge_hit_index(row, 1.0, step_var, u)
        full.append(np.inf if n < 0 else n * step)
    assert np.isinf(full[:2]).tolist() == [True, False]
    assert full[2:5] == [0.0, step, 9 * step]
    assert full[8] == step
    assert full[12] == 2 * step
    # uniforms past each row's draws are never decisive, whatever they hold
    for filler in (0.0, -np.inf, 7.0):
        log_u = np.full(uniforms.shape, filler)
        for r, n in enumerate(_bridge_draws(plain)):
            log_u[r, :n] = np.log(uniforms[r, :n])
        got = _bridge_hit_times_batch(values, 1.0, step, step_var, log_u, plain)
        assert got.tolist() == full


def test_bridge_draws_stop_before_the_plain_hit():
    values, _, _ = _crafted_rows()
    steps = values.shape[1] - 1
    plain = _plain_hit_index(values, 1.0)
    assert plain[:4].tolist() == [steps + 1, steps + 1, 0, 1]
    assert _bridge_draws(plain)[:4].tolist() == [steps, steps, 0, 0]
    assert _bridge_draws(plain)[6] == 6

    class Recording(_ConstRng):
        def random(self, n):
            sizes.append(n)
            return super().random(n)

    for row, n in zip(values, _bridge_draws(plain)):
        if row[0] != 0.0:
            continue  # an FbmPath starts at zero
        sizes = []
        first_passage_bridge(_path(row), 1.0, Recording(0.5))
        assert sizes == [n]


# ---------------------------------------------------------------------------
# exact ceiling-law oracle at H = 1/2
# ---------------------------------------------------------------------------

def test_bridge_matches_exact_ceiling_law():
    """At H = 1/2 the bridge time has the law of step * ceil(tau / step).

    E[exp(-lam * tau_bridge); tau <= T] is then an exact sum over the
    closed-form passage distribution F(t) = 2 (1 - Phi(1 / sqrt(t))).
    """
    T, N, lam = 2.0, 256, 1.0
    step = T / N
    n = np.arange(1, N + 1)
    cdf = 2.0 * (1.0 - norm.cdf(1.0 / np.sqrt(n * step)))
    cdf_prev = np.concatenate([[0.0], cdf[:-1]])
    oracle = float((np.exp(-lam * n * step) * (cdf - cdf_prev)).sum())
    assert oracle == pytest.approx(0.2323356068, abs=1e-9)

    times = passage_times(
        Hurst(0.5), TimeGrid(T, N), 20000, 31415, estimators=("bridge",)
    )["bridge"]
    est = laplace_from_times(times, lam, 0.5, "bridge")
    assert abs(est.value - oracle) < 4.0 * est.std_error, (
        f"bridge estimate {est.value:.5f} vs exact {oracle:.5f} "
        f"(se {est.std_error:.5f})"
    )
