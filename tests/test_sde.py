"""Closed-form model reduction and the explicit Euler propagation step.

Covers:
  - Drift/diffusion registry parsing and rejection of unknown specs and of
    a vanishing diffusion.
  - Unit-diffusion reduction: identity map for unit diffusion, rescale by
    1/s for constant diffusion s; `reduced_model`'s drift and level are
    (a x0 + c) / s and (threshold - x0) / s bit for bit, on floats where
    algebraically equal rewrites of either round differently.
  - Euler recursion: exact zero-drift shortcut, constant-drift ramp,
    geometric decay for b(y) = -y, non-finite state detection.
  - Block Euler for affine drift: bit for bit the plain five-ufunc loop,
    signed zeros included, and the same failing step on a non-finite state.
  - Early-stopped Euler: with a level and a last read column, every state
    through each row's read range equals the full loop bit for bit, on
    signed-zero blocks and on real OU and linear-drift blocks; the error
    follows each row's own read range; a block whose rows all reach the
    level in the first batch is stepped with a traced peak that does not
    grow with the grid.
"""

import tracemalloc

import numpy as np
import pytest

from fbmpassage import PropagationError, circulant_spectrum
from fbmpassage import sde
from fbmpassage.sde import affine_coefficients, affine_euler, reduced_model
from reference_samplers import sample_fgn


def _sampled_path(seed=11, horizon=5.0, steps=512, hv=0.6):
    """A (1, steps+1) block holding one fBm path's prefix sums, and its mesh."""
    increments = sample_fgn(circulant_spectrum(hv, horizon, steps), np.random.default_rng(seed))[0]
    return np.concatenate(([0.0], np.cumsum(increments)))[None, :], horizon / steps


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
    assert reduced_model("zero", "one", 0.0, 1.0) == (0.0, 0.0, 1.0, 1.0)
    # a start shift moves the level, not the reduced drift
    assert reduced_model("zero", "one", 0.7, 1.0) == (0.0, 0.0, 1.0, 1.0 - 0.7)


def test_constant_diffusion_rescales():
    a, c_reduced, s, level = reduced_model("zero", "const:2", 0.0, 1.0)
    assert (a, c_reduced, s) == (0.0, 0.0, 2.0)
    assert level == 0.5  # the level 1 from x0 = 0
    # drift a x + c becomes a y + (a x0 + c) / s
    assert reduced_model("linear:0.5,1", "const:2", 2.0, 1.0)[:3] == (0.5, 1.0, 2.0)


@pytest.mark.parametrize(
    "model",  # (drift, diffusion, x0, threshold)
    [
        ("linear:0.3,0.7", "const:3", 0.1, 0.3),
        ("linear:0.3,0.2", "const:3", 0.1, 0.3),
        ("linear:0.3,0.7", "const:7", -0.3, 0.1),
        ("linear:-0.7,0.2", "const:7", -0.3, 0.1),
    ],
)
def test_reduced_model_keeps_its_float_expressions_bit_for_bit(model):
    drift, diffusion, x0, threshold = model
    a, c, s = affine_coefficients(drift, diffusion)
    c_reduced, level = (a * x0 + c) / s, (threshold - x0) / s
    assert [x.hex() for x in reduced_model(*model)] == [x.hex() for x in (a, c_reduced, s, level)]
    # each case has teeth: an algebraically equal rewrite of c~ or of the level rounds to another float
    drift_rewrites = {a * x0 / s + c / s, (a * x0 + c) * (1 / s)}
    level_rewrites = {threshold / s - x0 / s, (threshold - x0) * (1 / s)}
    assert drift_rewrites != {c_reduced} or level_rewrites != {level}


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


# ---------------------------------------------------------------------------
# early-stopped Euler: each row through its plain hit and the last read column
# ---------------------------------------------------------------------------

def _read_ends(states, level, read_to):
    """Each row's last read column: the later of read_to and its first state at or above level
    (its last column if it has none)."""
    mask = states >= level
    first = np.where(mask.any(axis=1), mask.argmax(axis=1), states.shape[1] - 1)
    return np.maximum(first, read_to)


def _assert_read_ranges_equal(noise, a, c, step, level, read_to):
    want = _five_ufunc_euler(noise.copy(), a, c, step)
    got = noise.copy()
    assert affine_euler(got, a, c, step, level, read_to) is got
    for row, end in enumerate(_read_ends(want, level, read_to)):
        assert got[row, : end + 1].tobytes() == want[row, : end + 1].tobytes(), (row, end)
    return _read_ends(want, level, 0)


def _drifted_block(drift, rows, steps=1024, horizon=3.0, hv=0.6, seed=3):
    """Prefix sums of `rows` fGn rows and the reduced (a, c, level) of `drift` with const:2 from x0 = 0.25."""
    spectrum = circulant_spectrum(hv, horizon, steps)
    rng = np.random.default_rng(seed)
    noise = np.zeros((rows, steps + 1))
    for r in range(0, rows, 2):
        np.add.accumulate(sample_fgn(spectrum, rng), axis=1, out=noise[r : r + 2, 1:])
    a, c_reduced, _, level = reduced_model(drift, "const:2", 0.25, 1.0)
    return noise, a, c_reduced, level, horizon / steps


@pytest.mark.parametrize("read_to", [0, 17, 64])
@pytest.mark.parametrize("level", [-0.5, 0.0, 1.5, 4.0, 1e9])
@pytest.mark.parametrize("c", [0.0, -0.0, 0.4])
@pytest.mark.parametrize("a", [-1.0, 0.7])
def test_early_stopped_euler_equals_full_loop_on_signed_zeros(a, c, level, read_to):
    # level <= 0: every row is at the level at column 0; 1e9: no row gets there
    hits = _assert_read_ranges_equal(_signed_zero_block(), a, c, 0.1, level, read_to)
    if level <= 0.0:
        assert (hits == 0).all()
    if level == 1e9:
        assert (hits == 64).all()


@pytest.mark.parametrize("read_to", [0, 300, 1024])
@pytest.mark.parametrize("rows", [6, sde.TAIL_ROWS, 2 * sde.TAIL_ROWS + 2, 96])
@pytest.mark.parametrize("drift", ["ou:1", "linear:0.7,-0.3"])
def test_early_stopped_euler_equals_full_loop_on_drifted_blocks(drift, rows, read_to):
    noise, a, c, level, step = _drifted_block(drift, rows)
    assert c != 0.0
    hits = _assert_read_ranges_equal(noise, a, c, step, level, read_to)
    assert (hits < 1024).any()
    if rows > sde.TAIL_ROWS:
        # some rows pass the level in the block loop and some never do
        assert (hits == 1024).any()


@pytest.mark.parametrize("rows", [6, 96])
def test_non_finite_state_past_every_read_range_is_not_an_error(rows):
    noise, a, c, _, step = _drifted_block("ou:1", rows)
    noise[:, 1:100] += 5.0  # every row is at the level at column 1, and below it from 100 to 199
    noise[:, 200:] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(PropagationError, match="step 200"):
            affine_euler(noise.copy(), a, c, step)
        got = affine_euler(noise.copy(), a, c, step, 1.0, 150)
        assert np.isfinite(got[:, :151]).all()
        with pytest.raises(PropagationError, match="step 200"):
            affine_euler(noise.copy(), a, c, step, 1.0, 200)


@pytest.mark.parametrize("rows", [6, 96])
def test_non_finite_state_names_the_first_step_in_any_read_range(rows):
    noise, a, c, _, step = _drifted_block("ou:1", rows)
    noise[:, 1:] += 5.0  # every row is at the level from column 1...
    noise[3, 1:600] -= 10.0  # ...but row 3, which is still below it at 420
    noise[3, 420] = np.nan
    noise[1, 100] = np.inf  # past row 1's read range, inside the first block batch
    with np.errstate(invalid="ignore"):
        with pytest.raises(PropagationError, match="step 420"):
            affine_euler(noise.copy(), a, c, step, 1.0, 0)


def test_early_stopped_euler_peak_does_not_grow_with_the_grid():
    peaks = []
    for steps in (2**12, 2**16):
        noise = np.zeros((8, steps + 1))
        noise[:, 1:] = 5.0  # every row is at the level from column 1
        tracemalloc.start()
        try:
            affine_euler(noise, -1.0, 0.0, 0.01, 1.0, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a view per grid column would hold ~120 B per column: ~7 MB more at 2^16
    assert peaks[1] <= 1.1 * peaks[0], peaks
