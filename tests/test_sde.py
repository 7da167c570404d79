"""Closed-form model reduction and the explicit Euler propagation step.

Covers:
  - Drift/diffusion registry parsing and rejection of unknown specs and of
    a vanishing diffusion.
  - Unit-diffusion reduction: identity map for unit diffusion, rescale by
    1/s for constant diffusion s.
  - Euler recursion: exact zero-drift shortcut, constant-drift ramp,
    geometric decay for b(y) = -y, non-finite state detection.
  - Block Euler for affine drift: bit for bit the plain five-ufunc loop,
    signed zeros included, and the same failing step on a non-finite state.
"""

import numpy as np
import pytest

from fbmpassage import Hurst, PropagationError, SimulationJob, TimeGrid, circulant_spectrum, sample_fgn
from fbmpassage.runner import _reduced_drift
from fbmpassage.sde import affine_coefficients, affine_euler


def _sampled_path(seed=11, horizon=5.0, steps=512, hv=0.6):
    """A (1, steps+1) block holding one fBm path's prefix sums, and its mesh."""
    grid = TimeGrid(horizon, steps)
    increments = sample_fgn(circulant_spectrum(Hurst(hv), grid), np.random.default_rng(seed))[0]
    return np.concatenate(([0.0], np.cumsum(increments)))[None, :], grid.step


def _model(drift="zero", diffusion="one", x0=0.0):
    return SimulationJob(hurst=(0.5,), horizon=1.0, steps=2, samples=2, master_seed=0, x0=x0, drift=drift, diffusion=diffusion)


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

def test_drift_registry():
    assert affine_coefficients("zero", "one")[:2] == (0.0, 0.0)
    a, c, _ = affine_coefficients("linear:2,0.5", "one")
    assert a * 1.0 + c == pytest.approx(2.5)
    a, c, _ = affine_coefficients("ou:0.8", "one")
    assert a * 2.0 + c == pytest.approx(-1.6)
    with pytest.raises(ValueError):
        affine_coefficients("bogus", "one")
    with pytest.raises(ValueError):
        affine_coefficients("linear:1", "one")  # wrong arity


def test_diffusion_registry():
    assert affine_coefficients("zero", "one")[2] == 1.0
    assert affine_coefficients("zero", "const:2")[2] == 2.0
    with pytest.raises(ValueError):
        affine_coefficients("zero", "const:0")  # must be positive
    with pytest.raises(ValueError):
        affine_coefficients("zero", "nope")


# ---------------------------------------------------------------------------
# closed-form reduction y = (x - x0) / s
# ---------------------------------------------------------------------------

def test_unit_diffusion_reduces_to_identity():
    assert _reduced_drift(_model()) == (0.0, 0.0, 1.0)
    # a start shift moves the level, not the reduced drift
    assert _reduced_drift(_model(x0=0.7)) == (0.0, 0.0, 1.0)


def test_constant_diffusion_rescales():
    a, c_reduced, s = _reduced_drift(_model(diffusion="const:2"))
    assert (a, c_reduced, s) == (0.0, 0.0, 2.0)
    assert (1.0 - 0.0) / s == 0.5  # the level 1 from x0 = 0
    # drift a x + c becomes a y + (a x0 + c) / s
    assert _reduced_drift(_model("linear:0.5,1", "const:2", x0=2.0)) == (0.5, 1.0, 2.0)


def test_vanishing_diffusion_rejected():
    for spec in ("const:0", "const:-1"):
        with pytest.raises(ValueError, match="positive"):
            affine_coefficients("zero", spec)


# ---------------------------------------------------------------------------
# Euler propagation
# ---------------------------------------------------------------------------

def test_zero_drift_is_exact_shift():
    path, step = _sampled_path()
    solved = affine_euler(path.copy(), 0.0, 0.0, step)
    assert solved.tobytes() == path.tobytes()
    shifted = 1.25 + path
    assert np.array_equal(affine_euler(shifted.copy(), 0.0, 0.0, step), shifted)


def test_constant_drift_zero_noise_ramp():
    solved = affine_euler(np.zeros((1, 101)), 0.0, 0.75, 0.01)
    want = 0.75 * np.arange(101) * 0.01
    assert np.max(np.abs(solved[0] - want)) < 1e-12


def test_linear_decay_recursion():
    """b(y) = -y with no noise contracts by (1 - step) each step."""
    solved = affine_euler(np.ones((1, 101)), -1.0, 0.0, 0.01)  # noise rows hold x0 = 1
    assert solved[0, -1] == pytest.approx(0.99**100, rel=1e-12)
    assert solved[0, -1] == pytest.approx(0.36603234127322953, rel=1e-10)


def test_non_finite_drift_raises():
    with pytest.raises(PropagationError):
        affine_euler(np.zeros((1, 11)), 0.0, float("nan"), 0.1)


def test_divergent_drift_raises():
    with np.errstate(over="ignore"), pytest.raises(PropagationError):
        affine_euler(np.ones((1, 61)), 1e200, 0.0, 1.0 / 60)


def _five_ufunc_euler(values, a, c, step):
    """The block Euler loop written plainly: five ufunc calls per grid step, `+ c` always."""
    acc = np.zeros(values.shape[0])
    drift = np.empty_like(acc)
    for n in range(1, values.shape[1]):
        np.multiply(values[:, n - 1], a, out=drift)
        drift += c
        drift *= step
        acc += drift
        values[:, n] += acc
    if not np.isfinite(values).all():
        bad_step = int((~np.isfinite(values)).any(axis=0).argmax())
        raise PropagationError(f"drift propagation failed: non-finite state at step {bad_step}")
    return values


def _signed_zero_block():
    rng = np.random.default_rng(5)
    noise = np.cumsum(rng.normal(size=(6, 65)), axis=1)
    noise[:, 0] = 0.0
    noise[1] = -0.0  # a whole row of -0.0
    noise[2] = 0.0
    noise[3, ::2] = -0.0  # signed zeros between nonzero entries
    noise[4, 1::3] = 0.0
    noise[5, :] = np.where(np.arange(65) % 2, -0.0, 1.0)
    return noise


@pytest.mark.parametrize("c", [0.0, -0.0, 0.4, -1.5])
@pytest.mark.parametrize("a", [0.0, -1.0, 0.7])
def test_affine_euler_equals_five_ufunc_loop_bit_for_bit(a, c):
    noise = _signed_zero_block()
    want = _five_ufunc_euler(noise.copy(), a, c, 0.125)
    got = noise.copy()
    assert affine_euler(got, a, c, 0.125) is got
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [0.0, 0.4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_affine_euler_names_the_same_failing_step(bad, c):
    noise = _signed_zero_block()
    noise[4, 37] = bad
    with np.errstate(invalid="ignore"):  # inf - inf downstream of the bad entry
        with pytest.raises(PropagationError) as want:
            _five_ufunc_euler(noise.copy(), -1.0, c, 0.125)
        with pytest.raises(PropagationError) as got:
            affine_euler(noise.copy(), -1.0, c, 0.125)
    assert str(got.value) == str(want.value)
    assert "step 37" in str(got.value)


def test_affine_euler_names_the_step_a_divergent_drift_overflows():
    noise = _signed_zero_block()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PropagationError) as want:
            _five_ufunc_euler(noise.copy(), 1e200, 0.0, 1.0)
        with pytest.raises(PropagationError) as got:
            affine_euler(noise.copy(), 1e200, 0.0, 1.0)
    assert str(got.value) == str(want.value)
