"""Threshold detectors: grid scan and bridge-corrected scan on blocks of paths.

Covers:
  - Grid detector on crafted rows: first crossing index, touching the
    level, censoring, boundary hit at index 0, and a per-row scan.
  - The batch bridge scan fires on one step exactly below the crossing
    probability's frozen log value, at H = 1/2 and H = 0.6, for a
    vanishing gap and for a flat path far from the level.
  - Bridge scan semantics: grid hits fire regardless of the uniforms, a
    remote threshold censors, recorded times are right-endpoint multiples
    of the mesh, bridge times never exceed grid times on the same path.
  - The batch bridge scan stops at each row's plain hit and reads no
    uniform past it, yet equals the full-grid scan on crafted rows: a
    censored row, a start at the level, a hit at index 1, a bridge firing
    one step before the plain hit, a grid value equal to the level, early
    and late in the grid.  Rows that hold exactly one uniform per step
    before their plain hit give the full-grid times, and a row that holds
    one too few raises.
  - Distributional check at H = 1/2: the bridge hit time matches the exact
    ceiling-law value computed from the closed-form passage distribution.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

from fbmpassage import RULES, SimulationJob, laplace_from_times, run_simulation
from fbmpassage.passage import _bridge_hit_times_batch, _grid_times, _plain_hit_index


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


def _plain_times(rows, threshold, step=1.0):
    """Plain-rule hit times of the rows of a block; +inf marks censored rows."""
    values = np.atleast_2d(np.asarray(rows, dtype=float))
    return _grid_times(_plain_hit_index(values, threshold), values.shape[1] - 1, step)


def _bridge_times(rows, threshold, step, uniform):
    """Bridge-rule hit times with every uniform equal to `uniform`, at H = 1/2."""
    values = np.atleast_2d(np.asarray(rows, dtype=float))
    log_u = np.full((len(values), values.shape[1] - 1), math.log(uniform))
    plain = _plain_hit_index(values, threshold)
    return _bridge_hit_times_batch(values, threshold, step, step, log_u, plain)


def _simulate(hurst, horizon, steps, samples, seed, **kw):
    """The outputs of a one-H run: row 0 of each of run_simulation's arrays."""
    job = SimulationJob(hurst=(hurst,), horizon=horizon, steps=steps, samples=samples, master_seed=seed, **kw)
    return {key: array[0] for key, array in run_simulation(job).items()}


# ---------------------------------------------------------------------------
# grid detector
# ---------------------------------------------------------------------------

def test_first_passage_crossing_index():
    assert _plain_hit_index(np.array([[0.0, 0.5, 1.2, 0.8]]), 1.0).tolist() == [2]
    assert _plain_times([0.0, 0.5, 1.2, 0.8], 1.0).tolist() == [2.0]


def test_first_passage_touch_counts():
    assert _plain_hit_index(np.array([[0.0, 1.0, 0.5]]), 1.0).tolist() == [1]


def test_first_passage_censored():
    assert _plain_hit_index(np.array([[0.0, 0.4, 0.9, 0.99]]), 1.0).tolist() == [4]
    assert _plain_times([0.0, 0.4, 0.9, 0.99], 1.0).tolist() == [np.inf]


def test_first_passage_boundary_start():
    assert _plain_hit_index(np.array([[0.0, -1.0, -2.0]]), 0.0).tolist() == [0]
    assert _plain_times([0.0, -1.0, -2.0], 0.0).tolist() == [0.0]


# ---------------------------------------------------------------------------
# per-step bridge probability
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "row,step,hurst,log_p",
    [
        ([0.9, 0.95], 0.01, 0.5, -1.0),  # -2 * 0.1 * 0.05 / 0.01
        ([0.9, 0.95], 0.01, 0.6, -(10.0**0.4)),  # -0.01 / 0.01^{1.2} = -0.01^{-0.2}
        ([0.5, 1.0 - 1e-12], 0.01, 0.5, -1e-10),  # a vanishing gap: p -> 1
        ([0.0, 0.0], 0.1, 0.5, -20.0),  # a flat path far from the level: -2 / step^{2H}
    ],
    ids=["brownian_point", "fractional_point", "vanishing_gap", "flat_path"],
)
def test_bridge_scan_fires_below_frozen_log_probability(row, step, hurst, log_p):
    """One step below the level 1 fires exactly when log U < log p, with
    p = exp(-2 (1 - x_prev)(1 - x_next) / step^{2H}) pinned by hand."""
    values = np.array([row])
    plain = _plain_hit_index(values, 1.0)
    for log_u, expected in ((log_p - 1e-12, step), (log_p + 1e-12, np.inf)):
        times = _bridge_hit_times_batch(values, 1.0, step, step ** (2.0 * hurst), np.full((1, 1), log_u), plain)
        assert times.tolist() == [expected], log_u


# ---------------------------------------------------------------------------
# bridge scan semantics
# ---------------------------------------------------------------------------

def test_bridge_grid_hit_fires_regardless_of_uniforms():
    assert _bridge_times([0.0, 0.5, 1.2, 0.8], 1.0, 1.0, 1.0 - 1e-12).tolist() == [2.0]


def test_bridge_remote_threshold_censors():
    assert _bridge_times([0.0, 0.01, -0.02, 0.005], 50.0, 0.001, 0.5).tolist() == [np.inf]


def test_bridge_fires_between_grid_points():
    # close approach: p = exp(-2 * 0.05 * 0.05 / 0.01) = exp(-0.5) ~ 0.607
    path = [0.0, 0.95, 0.95, 0.0]
    (hit,) = _bridge_times(path, 1.0, 0.01, 0.5)
    (missed,) = _bridge_times(path, 1.0, 0.01, 0.7)
    assert hit == pytest.approx(2 * 0.01)  # fired on the step between the two 0.95 values
    assert missed == np.inf


def test_bridge_time_is_right_endpoint_multiple():
    times = _simulate(0.5, 10.0, 1024, 300, 424242, rules=("bridge",))["bridge"]
    finite = times[np.isfinite(times)]
    assert len(finite) > 0
    ratio = finite / (10.0 / 1024)
    assert np.max(np.abs(ratio - np.round(ratio))) < 1e-9


def test_bridge_never_later_than_simple():
    result = _simulate(0.6, 10.0, 1024, 400, 777, rules=RULES)
    assert np.all(result["bridge"] <= result["simple"] + 1e-12)
    finite = np.isfinite(result["simple"])
    strictly = (result["bridge"][finite] < result["simple"][finite]).sum()
    assert strictly > 0, "bridge should fire early on some paths"


def test_batch_detectors_match_scalar_path_scan():
    rng = np.random.default_rng(909)
    step = 4.0 / 64
    values = np.cumsum(
        np.concatenate([np.zeros((40, 1)), rng.normal(0.0, 0.4, (40, 64))], axis=1),
        axis=1,
    )
    simple = _plain_times(values, 1.0, step)
    log_u = np.log(rng.random((40, 64)))
    step_var = step
    bridged = _bridge_hit_times_batch(
        values, 1.0, step, step_var, log_u, _plain_hit_index(values, 1.0)
    )
    assert np.isfinite(simple).any() and not np.isfinite(simple).all()
    for i in range(40):
        crossed = np.flatnonzero(values[i] >= 1.0)
        want = crossed[0] * step if len(crossed) else np.inf
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
    log_u = np.log(uniforms)
    got = _bridge_hit_times_batch(values, 1.0, step, step_var, log_u, plain)
    assert got.tolist() == full


def test_bridge_draws_stop_before_the_plain_hit():
    values, uniforms, step_var = _crafted_rows()
    step = 0.5
    steps = values.shape[1] - 1
    plain = _plain_hit_index(values, 1.0)
    assert plain[:4].tolist() == [steps + 1, steps + 1, 0, 1]
    assert plain[6] == 7
    full = [_bridge_hit_index(row, 1.0, step_var, u) for row, u in zip(values, uniforms)]
    full = [np.inf if n < 0 else n * step for n in full]
    # each row holds exactly one log-uniform per step before its plain hit, N when censored
    log_u = [np.log(u[: max(stop - 1, 0)]) for u, stop in zip(uniforms, plain.tolist())]
    assert [len(u) for u in log_u[:4]] == [steps, steps, 0, 0] and len(log_u[6]) == 6
    assert _bridge_hit_times_batch(values, 1.0, step, step_var, log_u, plain).tolist() == full
    # a row that holds one entry too few raises instead of broadcasting
    log_u[6] = log_u[6][:5]
    with pytest.raises(ValueError):
        _bridge_hit_times_batch(values, 1.0, step, step_var, log_u, plain)


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

    times = _simulate(0.5, T, N, 20000, 31415, rules=("bridge",))["bridge"]
    value, se = laplace_from_times(times, lam)
    assert abs(value - oracle) < 4.0 * se, (
        f"bridge estimate {value:.5f} vs exact {oracle:.5f} "
        f"(se {se:.5f})"
    )
