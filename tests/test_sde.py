"""State-space reduction and the explicit Euler propagation step.

Covers:
  - Drift/diffusion registry parsing and rejection of unknown specs.
  - Unit-diffusion reduction: identity map, constant rescale, arctan map
    for sigma(x) = 1 + x^2, threshold mapping, inverse roundtrip.
  - Ellipticity enforcement on the tabulation range.
  - Euler recursion: exact zero-drift shortcut, constant-drift ramp,
    geometric decay for b(y) = -y, non-finite state detection.
  - Block Euler for affine drift: bit for bit the plain five-ufunc loop,
    signed zeros included, and the same failing step on a non-finite state.
"""

import math

import numpy as np
import pytest

from fbmpassage import (
    Coefficients,
    EllipticityError,
    FbmPath,
    Hurst,
    PropagationError,
    TimeGrid,
    build_lamperti,
    circulant_spectrum,
    diffusion_from_name,
    drift_from_name,
    euler_solve,
    fbm_path,
    inverse_path,
    sample_fgn,
    threshold_transform,
)
from fbmpassage.sde import affine_euler


def _zero_noise_path(horizon, steps):
    grid = TimeGrid(horizon, steps)
    return FbmPath(np.zeros(steps + 1), grid, Hurst(0.5))


def _sampled_path(seed=11, horizon=5.0, steps=512, hv=0.6):
    h, grid = Hurst(hv), TimeGrid(horizon, steps)
    block, _ = sample_fgn(circulant_spectrum(h, grid), h, grid, np.random.default_rng(seed))
    return fbm_path(block)


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

def test_drift_registry():
    assert drift_from_name("zero")(3.7) == 0.0
    lin = drift_from_name("linear:2,0.5")
    assert lin(1.0) == pytest.approx(2.5)
    ou = drift_from_name("ou:0.8")
    assert ou(2.0) == pytest.approx(-1.6)
    with pytest.raises(ValueError):
        drift_from_name("bogus")
    with pytest.raises(ValueError):
        drift_from_name("linear:1")  # wrong arity


def test_diffusion_registry():
    assert diffusion_from_name("one")(0.3) == 1.0
    assert diffusion_from_name("const:2")(9.9) == 2.0
    with pytest.raises(ValueError):
        diffusion_from_name("const:0")  # must be positive
    with pytest.raises(ValueError):
        diffusion_from_name("nope")


# ---------------------------------------------------------------------------
# Lamperti reduction
# ---------------------------------------------------------------------------

def test_unit_diffusion_reduces_to_identity():
    coeff = Coefficients(drift_from_name("zero"), diffusion_from_name("one"))
    lam = build_lamperti(coeff, 0.0, (-5.0, 5.0))
    for x in (-2.0, 0.0, 1.0, 4.5):
        assert lam.forward(x) == pytest.approx(x, abs=1e-10)
    assert threshold_transform(lam, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_constant_diffusion_rescales():
    coeff = Coefficients(drift_from_name("zero"), diffusion_from_name("const:2"))
    lam = build_lamperti(coeff, 0.0, (-4.0, 4.0))
    assert lam.forward(1.0) == pytest.approx(0.5, abs=1e-10)
    assert threshold_transform(lam, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert threshold_transform(lam, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_quadratic_diffusion_gives_arctan_map():
    coeff = Coefficients(drift_from_name("zero"), lambda x: 1.0 + x * x)
    lam = build_lamperti(coeff, 0.0, (-1.5, 1.5))
    assert lam.forward(1.0) == pytest.approx(math.pi / 4.0, abs=1e-10)
    assert lam.forward(-1.0) == pytest.approx(-math.pi / 4.0, abs=1e-10)


def test_lamperti_inverse_roundtrip():
    coeff = Coefficients(drift_from_name("zero"), lambda x: 1.0 + x * x)
    lam = build_lamperti(coeff, 0.0, (-1.2, 1.2))
    xs = np.linspace(-1.0, 1.0, 21)
    back = lam.inverse(np.array([lam.forward(x) for x in xs]))
    assert np.max(np.abs(back - xs)) < 1e-8


def test_lamperti_monotone():
    coeff = Coefficients(drift_from_name("zero"), lambda x: 0.5 + x * x)
    lam = build_lamperti(coeff, 0.0, (-2.0, 2.0))
    xs = np.linspace(-1.9, 1.9, 50)
    ys = np.array([lam.forward(x) for x in xs])
    assert (np.diff(ys) > 0.0).all()


def test_vanishing_diffusion_rejected():
    coeff = Coefficients(drift_from_name("zero"), lambda x: x)  # zero at the origin
    with pytest.raises(EllipticityError):
        build_lamperti(coeff, 0.5, (-1.0, 1.0))


# ---------------------------------------------------------------------------
# Euler propagation
# ---------------------------------------------------------------------------

def test_zero_drift_is_exact_shift():
    path = _sampled_path()
    solved = euler_solve(drift_from_name("zero"), 1.25, path)
    assert np.array_equal(solved.values, 1.25 + path.values)


def test_constant_drift_zero_noise_ramp():
    path = _zero_noise_path(1.0, 100)
    solved = euler_solve(lambda y: 0.75, 0.0, path)
    want = 0.75 * np.arange(101) * path.grid.step
    assert np.max(np.abs(solved.values - want)) < 1e-12


def test_linear_decay_recursion():
    """b(y) = -y with no noise contracts by (1 - step) each step."""
    path = _zero_noise_path(1.0, 100)
    solved = euler_solve(lambda y: -y, 1.0, path)
    assert solved.values[-1] == pytest.approx(0.99**100, rel=1e-12)
    assert solved.values[-1] == pytest.approx(0.36603234127322953, rel=1e-10)


def test_non_finite_drift_raises():
    path = _zero_noise_path(1.0, 10)
    with pytest.raises(PropagationError):
        euler_solve(lambda y: float("nan"), 0.0, path)


def test_divergent_drift_raises():
    path = _zero_noise_path(1.0, 60)
    with np.errstate(over="ignore"), pytest.raises(PropagationError):
        euler_solve(lambda y: y * 1e200, 1.0, path)


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


def test_inverse_path_applies_map():
    coeff = Coefficients(drift_from_name("zero"), lambda x: 1.0 + x * x)
    lam = build_lamperti(coeff, 0.0, (-1.4, 1.4))
    path = _zero_noise_path(1.0, 8)
    solved = euler_solve(lambda y: 0.5, 0.0, path)  # ramp in reduced space
    original = inverse_path(lam, solved)
    assert np.max(np.abs(original.values - np.tan(solved.values))) < 1e-8
