"""Deterministic chunked Monte Carlo driver.

Covers:
  - Bit-identical results across worker counts and chunk sizes, the
    model's default chunk size included: 4 pairs with no Euler loop, cut
    from 6 H on, and 128 with one, cut from 3 H on.
  - Seed separation: different seeds decorrelate, same seed reproduces.
  - Shift invariance of the pure zero-drift case: moving the start is the
    same as moving the threshold.
  - Marginal extraction: shapes, variance statistics, index validation.
  - Suprema / argmax windows: pathwise monotonicity in the window length.
  - Job validation (rule names outside RULES or repeated, bool substream
    key words and non-integer worker counts included) and the one test of
    zero reduced drift that skips the Euler loop and gives the Brownian
    level.  A one-CPU affinity mask starts no process pool.
  - The output mapping: exactly the requested keys, each array indexed
    [H, path].
  - Multi-H jobs: one job over several H values equals the single-H jobs
    bit for bit, and draws each pair's normals and each path's uniforms
    once per run; a 17-H job over several chunks computes each spectrum
    once, and a job whose H values are a list equals the tuple job.
  - Chunk assembly: every path, pure or through the Euler loop, equals the
    prefix sum of its row from the tests' pair helper (`sample_fgn`) bit
    for bit, for one and several H, partial last chunks and FFT groups
    and a half-used last pair.  On one CPU an inline chunk hands
    BLOCK_PAIRS pairs to each fill call at 2^15 steps too, and equals a
    pooled run bit for bit.
  - Sharing with a helper thread: a serial run of one H or several on two
    CPUs, at the grid floor (lowered by the tests), shares whole chunks
    without the Euler loop and a chunk's pairs with it, and returns every
    output `==` to the one-CPU and pooled runs (pure and OU, odd samples,
    a partial last chunk, 1- and 3-pair chunks, five and eleven H, three
    drifted H with odd samples, two drifted H with every output, and 200
    one-pair chunks with the threads switching every microsecond); pool,
    one-CPU and below-floor runs start no thread, and at the unlowered
    floor 256- and 1024-step runs start none and 2048- and 4096-step runs
    one each.  While the helper is slow the caller
    takes the rest, with the same outputs.  No thread outlives a run, one
    whose Euler loop raises included; an error on either thread stops the
    other after its item and is raised by the run.  A run starts one
    helper whatever its chunk count.  These tests pin the CPU
    count the runner sees, and slow the caller where the helper must
    draw, so they hold on a one-CPU host.
  - Bridge uniforms: a Philox substream's draws split anywhere give the
    same values, and each path draws its uniforms in one call per chunk,
    none past its latest plain hit.
  - Window extremes equal a rescan of every prefix, ties included, and
    copy no window.
  - The allocator setting runs once per process, on its first run or chunk, and
    never on import; the model's chunk halves until the run fits in memory,
    down to one pair, and the chunks tile the path pairs in order, each
    computed from the caller's job; the memory bound refuses a run before
    allocating, counts chunks, spectra, the bridge scan (only with the
    bridge rule) and the fill buffers as two phases, the helper thread's
    chunk or fill (only for a serial run with a spare CPU) and results exactly, 17 H
    in one-pair chunks included, and bounds the traced peak of thirteen
    job shapes from above, on one CPU as on two.
  - Closed-form affine reduction: registry models agree with a scalar
    per-path Euler loop on y = (x - x0) / s, and zero drift with constant
    diffusion is scaled fBm with no Euler loop at all.  OU marginals match
    their exact Gaussian law, E cos X_n = exp(-s^2 w_n' Gamma w_n / 2),
    with w_n from the Euler recursion and Gamma the fGn covariance.
  - Early-stopped Euler: every output equals a run that steps every
    state, for any chunk size; the padding row of an odd sample count is
    not stepped; states that overflow after every row's passage do not
    fail a run.
"""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from fbmpassage import (
    GAUSSIAN_STREAM, RULES, UNIFORM_STREAM, SimulationJob, circulant_spectrum, fgn_autocovariance, run_simulation,
    substream,
)
import fbmpassage
from fbmpassage import runner
from fbmpassage.cli import _grid_index
from fbmpassage.passage import _bridge_hit_times_batch, _grid_times, _plain_hit_index
from fbmpassage.sde import PropagationError, affine_coefficients, affine_euler
from reference_samplers import sample_fgn


def _job(**kw):
    base = dict(
        hurst=(0.6,),
        horizon=5.0,
        steps=256,
        samples=300,
        master_seed=42,
        threshold=1.0,
    )
    base.update(kw)
    return SimulationJob(**base)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_worker_count_is_observationally_irrelevant():
    job = _job(rules=RULES)
    serial = run_simulation(job, workers=1)
    pooled = run_simulation(job, workers=3)
    assert np.array_equal(serial["simple"], pooled["simple"])
    assert np.array_equal(serial["bridge"], pooled["bridge"])


def test_a_one_cpu_affinity_mask_starts_no_pool(monkeypatch, pin_chunk):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process that may run on one CPU must run its chunks serially")

    pin_chunk(2)
    job = _job(samples=40)  # 10 chunks
    serial = run_simulation(job)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    assert np.array_equal(run_simulation(job, workers=4)["simple"], serial["simple"])


def test_chunk_size_is_observationally_irrelevant(pin_chunk):
    outputs = dict(rules=RULES, marginal_indices=(17, 256), extreme_indices=(64, 256))
    jobs = [_job(drift=drift, **outputs) for drift in ("zero", "ou:1")]
    jobs.append(_job(hurst=tuple(0.5 + 0.05 * i for i in range(7)), **outputs))  # past 5 H, 2-pair chunks
    defaults = [run_simulation(job) for job in jobs]  # the model's chunk
    for pairs in (1, 3, 7, 128):
        pin_chunk(pairs)
        for job, want in zip(jobs, defaults):
            got = run_simulation(job)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[key], want[key]) for key in want)


@pytest.mark.parametrize(
    "model, pairs",
    [
        (("zero", "one"), 4),
        (("zero", "const:2"), 4),
        (("ou:1", "one"), 128),
        # (drift, diffusion, H values): a drifted chunk is cut from 3 H on
        # to 3 * 128 // H pairs, rows of 3 H per pair
        (("zero", "one", 5), 4),
        (("ou:1", "one", 2), 128),
        (("ou:1", "one", 3), 128),
        (("ou:1", "one", 5), 76),
        (("ou:1", "one", 200), 1),
        # a zero-drift chunk is cut from 6 H on to 5 * 4 // H pairs, at
        # least one, so its path rows stay those of a 4-pair chunk at 5 H
        (("zero", "const:2", 6), 3),
        (("zero", "one", 10), 2),
        (("zero", "one", 11), 1),
        (("zero", "one", 17), 1),
        (("zero", "one", 40), 1),
    ],
)
def test_default_chunk_pairs_follow_the_model(model, pairs):
    drift, diffusion, hursts = (*model, 1)[:3]
    hurst = tuple(0.5 + 0.001 * i for i in range(hursts))
    assert runner._model_chunk_pairs(_job(drift=drift, diffusion=diffusion, hurst=hurst)) == pairs
    with pytest.raises(ValueError):
        runner._model_chunk_pairs(_job(drift="nope"))


def test_same_seed_reproduces_different_seed_changes():
    a = run_simulation(_job())["simple"]
    b = run_simulation(_job())["simple"]
    c = run_simulation(_job(master_seed=43))["simple"]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_prefix_stability():
    """The first paths of a longer run are exactly a shorter run."""
    small = run_simulation(_job(samples=100))["simple"][0]
    large = run_simulation(_job(samples=300))["simple"][0]
    assert np.array_equal(large[:100], small)


# ---------------------------------------------------------------------------
# pure-case reductions
# ---------------------------------------------------------------------------

def test_start_shift_equals_threshold_shift():
    """With zero drift and unit diffusion only threshold - x0 matters."""
    run = dict(hurst=(0.55,), steps=512, samples=400, master_seed=4711)
    shifted = run_simulation(_job(threshold=1.0, x0=0.2, **run))["simple"]
    rebased = run_simulation(_job(threshold=0.8, x0=0.0, **run))["simple"]
    assert np.array_equal(shifted, rebased)


def test_brownian_level_reads_the_reduced_drift():
    """One Brownian test: the Euler loop runs (no level) exactly when the reduced
    drift is not zero, and otherwise the paths are fBm run to (threshold - x0) / s."""
    assert runner._brownian_level(_job()) is not None
    assert runner._brownian_level(_job(x0=0.3)) is not None  # a start shift keeps the fast path
    assert runner._brownian_level(_job(diffusion="const:2")) is not None  # so does a constant diffusion
    # the coefficients decide, not the spelling of the specs
    assert runner._brownian_level(_job(drift="linear:0,0")) is not None
    assert runner._brownian_level(_job(drift="ou:0")) is not None
    assert runner._brownian_level(_job(diffusion="const:1")) is not None
    assert runner._brownian_level(_job(drift="ou:0.5")) is None
    assert runner._brownian_level(_job(drift="linear:0,0.5")) is None
    assert runner._brownian_level(_job(drift="linear:0.5,0")) is None

    assert runner._brownian_level(_job()) == 1.0
    assert runner._brownian_level(_job(x0=0.3, threshold=1.3)) == 1.3 - 0.3
    assert runner._brownian_level(_job(diffusion="const:2")) == 0.5
    assert runner._brownian_level(_job(drift="ou:0.5")) is None


def test_drifted_run_hits_earlier_on_average():
    # a positive constant push toward the threshold can only speed hits up
    pure = run_simulation(_job(hurst=(0.5,), samples=400, master_seed=31))["simple"]
    pushed = run_simulation(_job(hurst=(0.5,), samples=400, master_seed=31, drift="linear:0,0.5"))["simple"]
    frac_pure = np.isfinite(pure).mean()
    frac_pushed = np.isfinite(pushed).mean()
    assert frac_pushed > frac_pure


# ---------------------------------------------------------------------------
# marginals and extremes
# ---------------------------------------------------------------------------

def test_marginal_values_shape_and_variance():
    idx = (_grid_index(1.0, 4.0, 512), _grid_index(4.0, 4.0, 512))
    job = _job(hurst=(0.7,), horizon=4.0, steps=512, samples=4000, master_seed=2020, rules=(), marginal_indices=idx)
    result = run_simulation(job)
    assert set(result) == {"marginals"}
    assert result["marginals"].shape == (1, 4000, 2)
    marg = result["marginals"][0]
    for col, t in zip(range(2), (1.0, 4.0)):
        var = marg[:, col].var(ddof=1)
        want = t ** (2.0 * 0.7)
        z = (var - want) / (want * np.sqrt(2.0 / (len(marg) - 1)))
        assert abs(z) < 5.0, f"t={t}: variance z = {z:.2f}"


def test_path_extremes_window_monotonicity():
    idx = tuple(_grid_index(t, 10.0, 1024) for t in (2.0, 5.0, 10.0))
    job = _job(horizon=10.0, steps=1024, samples=500, master_seed=808, rules=(), extreme_indices=idx)
    result = run_simulation(job)
    sups, args = result["sup_values"][0], result["argmax_times"][0]
    assert sups.shape == (500, 3)
    assert (np.diff(sups, axis=1) >= 0.0).all(), "sup grows with the window"
    assert (np.diff(args, axis=1) >= 0.0).all(), "first argmax never moves left"
    assert (args[:, 0] <= 2.0 + 1e-12).all()
    assert (sups[:, 0] >= 0.0).all()  # paths start at zero


def test_extremes_argmax_is_first_attaining_time():
    job = _job(
        hurst=(0.5,), horizon=10.0, samples=200, master_seed=11, rules=(),
        extreme_indices=(256,), marginal_indices=tuple(range(257)),
    )
    result = run_simulation(job)
    sups, args, marg = result["sup_values"][0], result["argmax_times"][0], result["marginals"][0]
    for i in range(200):
        j = int(np.flatnonzero(marg[i] == sups[i, 0])[0])
        assert args[i, 0] == pytest.approx(j * (10.0 / 256), abs=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_job_validation(pin_chunk):
    with pytest.raises(ValueError):
        run_simulation(_job(samples=0))
    # seeds, counts, indices and levels of the wrong kind fail before any chunk runs
    bad_fields = [
        ("master_seed", 1.5, "master_seed must be an integer"),
        ("master_seed", True, "master_seed must be an integer"),
        ("master_seed", -1, "master_seed must be an integer"),
        ("master_seed", 2**64, "master_seed must be an integer"),
        ("steps", 64.0, "steps must be an integer"),
        ("samples", 10.5, "samples must be an integer"),
        ("samples", True, "samples must be an integer"),
        ("marginal_indices", (2.5,), "grid indices must be integers"),
        ("extreme_indices", (3.5,), "grid indices must be integers"),
        ("marginal_indices", (True,), "grid indices must be integers"),
        ("x0", float("nan"), "x0 and threshold must be finite"),
        ("threshold", float("nan"), "x0 and threshold must be finite"),
        ("threshold", float("inf"), "x0 and threshold must be finite"),
    ]
    for name, value, message in bad_fields:
        with pytest.raises(ValueError, match=message):
            run_simulation(_job(**{"steps": 64, name: value}))
    # a substream key word that is not an integer raises instead of aliasing another stream
    for key in ((0, 0.7, 0), (0, 0, 2.9), (1.5, 0, 0)):
        with pytest.raises(TypeError, match="seed must be integer"):
            substream(*key)
    # a bool key word would alias the integer 0 or 1
    for key in ((0, True, 0), (True, 0, 0), (0, 0, False), (0, np.True_, 0)):
        with pytest.raises(TypeError):
            substream(*key)
    for key in ((0, 1, 0), (1, 0, 0), (np.int64(1), np.uint8(0), np.int32(0))):
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=tuple(map(int, key)))))
        assert np.array_equal(substream(*key).random(4), want.random(4))
    top = 2**64 - 1
    numpy_key = substream(np.uint64(top), np.int64(UNIFORM_STREAM), np.int32(3)).random(8)
    assert np.array_equal(numpy_key, substream(top, UNIFORM_STREAM, 3).random(8))
    top_seed = run_simulation(_job(steps=64, samples=10, master_seed=np.uint64(top)))
    assert np.array_equal(top_seed["simple"], run_simulation(_job(steps=64, samples=10, master_seed=top))["simple"])
    # a bool step count is no grid
    with pytest.raises(ValueError, match="steps must be a positive integer, got True"):
        circulant_spectrum(0.6, 1.0, True)
    i64 = np.int64
    numpy_ints = run_simulation(_job(steps=64, samples=i64(10), marginal_indices=(i64(3),), extreme_indices=(i64(5),)))
    plain_ints = run_simulation(_job(steps=64, samples=10, marginal_indices=(3,), extreme_indices=(5,)))
    assert all(np.array_equal(numpy_ints[key], plain_ints[key]) for key in plain_ints)
    with pytest.raises(ValueError):
        run_simulation(_job(hurst=(1.2,)))
    with pytest.raises(ValueError):
        run_simulation(_job(hurst=()))
    # a worker count is an integer of at least 1, numpy integers included
    for workers in (0, 0.5, 2.5, True):
        with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
            run_simulation(_job(steps=64), workers=workers)
    pin_chunk(3)
    two_chunks = _job(steps=64, samples=10)
    pooled = run_simulation(two_chunks, workers=np.int64(2))
    assert np.array_equal(pooled["simple"], run_simulation(two_chunks)["simple"])
    with pytest.raises(ValueError):
        run_simulation(_job(marginal_indices=(9999,)))  # off the grid
    for rules in (("simple", "fancy"), ("bridge", "bridge"), "simple"):
        with pytest.raises(ValueError, match="rules must be distinct names"):
            run_simulation(_job(rules=rules))


def test_start_at_threshold_hits_immediately():
    """Degenerate but well defined: every path is over the line at t=0."""
    times = run_simulation(_job(x0=1.0, samples=50))["simple"][0]
    assert np.array_equal(times, np.zeros(50))


def test_passage_times_estimator_selection():
    run = dict(hurst=(0.5,), horizon=2.0, steps=128, samples=100, master_seed=5)
    simple = run_simulation(_job(**run))
    assert set(simple) == {"simple"}
    bridge = run_simulation(_job(rules=("bridge",), **run))
    assert set(bridge) == {"bridge"}
    both = run_simulation(_job(rules=RULES, **run))
    assert set(both) == {"simple", "bridge"}
    assert np.array_equal(both["simple"], simple["simple"])
    assert np.array_equal(both["bridge"], bridge["bridge"])


# ---------------------------------------------------------------------------
# multi-H jobs
# ---------------------------------------------------------------------------

_MODELS = {
    "pure": dict(x0=0.2),
    "ou-const2": dict(drift="ou:1", diffusion="const:2"),
}
_OUTPUTS = ("simple", "bridge", "marginals", "sup_values", "argmax_times")


def _all_outputs_job(model, **kw):
    # an odd sample count leaves the last pair half used
    return _job(
        samples=61,
        rules=RULES,
        marginal_indices=(0, 100, 256),
        extreme_indices=(50, 256),
        **_MODELS[model],
        **kw,
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk_pairs", [1, 7, 128])
@pytest.mark.parametrize("model", list(_MODELS))
def test_multi_h_job_equals_single_h_jobs(pin_chunk, model, chunk_pairs, workers):
    hursts = (0.5, 0.6, 0.75)
    wants = [run_simulation(_all_outputs_job(model, hurst=(h,))) for h in hursts]  # the model's chunk
    pin_chunk(chunk_pairs)
    multi = run_simulation(_all_outputs_job(model, hurst=hursts), workers=workers)
    assert all(len(array) == len(hursts) for array in multi.values())
    for k, (h, want) in enumerate(zip(hursts, wants)):
        for name in _OUTPUTS:
            assert np.array_equal(multi[name][k], want[name][0]), (h, name)


def test_a_job_computes_each_spectrum_once_for_any_number_of_h_values(monkeypatch, pin_chunk):
    hursts = tuple(0.5 + 0.005 * k for k in range(17))
    pin_chunk(3)
    outputs = dict(steps=64, samples=20, rules=RULES, marginal_indices=(0, 32, 64), extreme_indices=(16, 64))
    spectra = Counter()
    original = runner.circulant_spectrum

    def counting(h, horizon, steps):
        spectra[h] += 1
        return original(h, horizon, steps)

    monkeypatch.setattr(runner, "circulant_spectrum", counting)
    runner._noise_scales.cache_clear()
    multi = run_simulation(_job(hurst=hursts, **outputs))  # 10 pairs in 4 chunks, serially
    assert spectra == {h: 1 for h in hursts}
    for k in (0, 16):
        want = run_simulation(_job(hurst=(hursts[k],), **outputs))
        assert all(np.array_equal(multi[name][k], want[name][0]) for name in _OUTPUTS), hursts[k]


def test_a_list_of_hurst_values_runs_as_its_tuple():
    listed, tupled = (run_simulation(_job(hurst=h, samples=20, rules=RULES)) for h in ([0.5, 0.6], (0.5, 0.6)))
    assert all(np.array_equal(listed[key], tupled[key]) for key in tupled)


@pytest.mark.parametrize(
    "outputs, keys",
    [
        (dict(rules=RULES, marginal_indices=(0, 100, 256), extreme_indices=(50, 256)), _OUTPUTS),
        (dict(rules=("bridge",), extreme_indices=(50,)), ("bridge", "sup_values", "argmax_times")),
        (dict(rules=(), marginal_indices=(7,)), ("marginals",)),
        (dict(rules=()), ()),
    ],
)
def test_output_mapping_holds_exactly_the_requested_keys(pin_chunk, outputs, keys):
    hursts = (0.5, 0.6, 0.75)
    pin_chunk(7)
    job = _job(hurst=hursts, samples=61, drift="ou:1", diffusion="const:2", **outputs)
    out = run_simulation(job)
    assert tuple(out) == keys
    for name, array in out.items():
        assert array.shape[:2] == (len(hursts), job.samples), name
        assert array.ndim == (2 if name in RULES else 3), name
    if "marginals" in out:
        assert out["marginals"].shape[2] == len(job.marginal_indices)
    if "sup_values" in out:
        assert out["sup_values"].shape[2] == out["argmax_times"].shape[2] == len(job.extreme_indices)


@pytest.mark.parametrize("hursts", [(0.6,), (0.5, 0.55, 0.6, 0.7, 0.9)])
def test_each_stream_is_requested_once_per_run(monkeypatch, pin_chunk, hursts):
    requests = Counter()
    original = runner.substream

    def counting(master_seed, stream, index):
        requests[stream, index] += 1
        return original(master_seed, stream, index)

    monkeypatch.setattr(runner, "substream", counting)
    pin_chunk(7)
    run_simulation(_job(hurst=hursts, samples=61, rules=RULES))
    gaussian = {i: n for (stream, i), n in requests.items() if stream == GAUSSIAN_STREAM}
    uniform = {i: n for (stream, i), n in requests.items() if stream == UNIFORM_STREAM}
    assert gaussian == {k: 1 for k in range(31)}
    assert uniform == {i: 1 for i in range(61)}


# ---------------------------------------------------------------------------
# block assembly
# ---------------------------------------------------------------------------

_EVERY_INDEX = tuple(range(257))


@pytest.mark.parametrize("drift", ["zero", "ou:1"])
@pytest.mark.parametrize("hursts", [(0.6,), (0.5, 0.6, 0.75)])
@pytest.mark.parametrize("chunk_pairs", [1, 3, 128])
def test_block_paths_equal_summed_sample_fgn_rows(pin_chunk, chunk_pairs, hursts, drift):
    # 11 paths: a partial last block, and the last pair's second path unused
    pin_chunk(chunk_pairs)
    job = _job(hurst=hursts, samples=11, drift=drift, rules=(), marginal_indices=_EVERY_INDEX)
    a, c, s = affine_coefficients(job.drift, job.diffusion)
    for h, got in zip(hursts, run_simulation(job)["marginals"]):
        spectrum = circulant_spectrum(h, job.horizon, job.steps)
        rows = np.concatenate([sample_fgn(spectrum, substream(42, GAUSSIAN_STREAM, k)) for k in range(6)])
        paths = np.zeros((12, job.steps + 1))
        np.add.accumulate(rows, axis=1, out=paths[:, 1:])
        affine_euler(paths, a, (a * job.x0 + c) / s, job.horizon / job.steps)  # a = c = 0 leaves the sums as they are
        assert (got == job.x0 + s * paths[:11]).all(), h


def test_an_inline_chunk_fills_block_pairs_per_call_on_a_large_grid(monkeypatch):
    job = _job(hurst=(0.5, 0.6), steps=2**15, samples=16, rules=RULES, extreme_indices=(2**14, 2**15))
    filled = []
    original = runner._pair_paths

    def recording(rngs, scales, out):
        filled.append(out.shape[1] // 2)
        original(rngs, scales, out)

    monkeypatch.setattr(runner, "_pair_paths", recording)
    _cpus(monkeypatch, 1)
    inline = run_simulation(job)
    assert filled == [runner.BLOCK_PAIRS] * (8 // runner.BLOCK_PAIRS)
    _cpus(monkeypatch, 2)
    pooled = run_simulation(job, workers=2)
    assert pooled.keys() == inline.keys()
    assert all(np.array_equal(pooled[key], inline[key]) for key in inline)


# ---------------------------------------------------------------------------
# sharing a serial run with a helper thread
# ---------------------------------------------------------------------------

def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _feed_from(monkeypatch, steps: int) -> None:
    """Lower the grid floor of sharing, so that small grids share their work with a helper thread."""
    monkeypatch.setattr(runner, "FEED_STEPS", steps)


def _counting_threads(monkeypatch) -> list:
    """Patch the runner's ThreadPoolExecutor to record each worker thread it starts, as that thread starts."""
    started = []

    class Counting(runner.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, initializer=lambda: started.append(threading.current_thread()), **kwargs)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", Counting)
    return started


def _helpers_done(started: list, before: int) -> bool:
    """Whether a run started a helper thread, every one has ended, and no other thread is left over."""
    return bool(started) and not any(t.is_alive() for t in started) and threading.active_count() == before


_AHEAD = {  # (pinned chunk pairs, job fields); zero drift shares whole chunks, the Euler loop a chunk's pairs
    "pure-5H": (None, dict(hurst=(0.5, 0.52, 0.55, 0.6, 0.75), rules=RULES)),
    "ou-2H": (None, dict(hurst=(0.5, 0.6), drift="ou:1", rules=RULES, marginal_indices=(7, 256))),  # 128 + 22 pairs
    "odd-samples": (None, dict(hurst=(0.5, 0.6, 0.75), samples=61, rules=RULES, extreme_indices=(50, 256))),
    "1-pair-chunks": (1, dict(hurst=(0.5, 0.6), samples=61, rules=RULES)),
    "3-pair-chunks": (3, dict(hurst=(0.5, 0.6), samples=61, rules=RULES)),  # a partial last chunk
    "pure-1H": (None, dict(samples=61, rules=RULES)),
    "ou-1H": (None, dict(drift="ou:1", marginal_indices=(7, 256))),  # 128 + 22 pairs
    "pure-5H-odd": (None, dict(hurst=(0.5, 0.52, 0.55, 0.6, 0.75), samples=61, rules=RULES, marginal_indices=(3, 256))),
    "pure-11H": (None, dict(hurst=tuple(0.5 + 0.03 * i for i in range(11)), samples=41, rules=RULES)),  # 1-pair chunks
    "ou-3H-odd": (None, dict(hurst=(0.5, 0.6, 0.75), drift="ou:1", samples=61, rules=RULES, marginal_indices=(7,))),
    "ou-2H-every-output": (
        None,
        dict(hurst=(0.5, 0.6), drift="ou:1", samples=301, rules=RULES, marginal_indices=(7, 256), extreme_indices=(50, 256)),
    ),  # 128 + 23 pairs, the last one half used
}


@pytest.mark.parametrize("name", _AHEAD)
def test_drawing_ahead_changes_no_output(monkeypatch, pin_chunk, name):
    chunk_pairs, fields = _AHEAD[name]
    if chunk_pairs:
        pin_chunk(chunk_pairs)
    job = _job(**fields)
    started = _counting_threads(monkeypatch)
    _feed_from(monkeypatch, job.steps)
    _cpus(monkeypatch, 1)
    inline = run_simulation(job)
    assert started == []
    _cpus(monkeypatch, 2)
    before = threading.active_count()
    ahead = run_simulation(job)
    assert _helpers_done(started, before)
    pooled = run_simulation(job, workers=2)
    for got in (ahead, pooled):
        assert got.keys() == inline.keys()
        assert all(np.array_equal(got[key], inline[key]) for key in inline)


def test_drawing_ahead_holds_under_fast_thread_switching(monkeypatch, pin_chunk):
    # 200 pairs in 1-pair chunks, the two threads switching as often as they can
    pin_chunk(1)
    _feed_from(monkeypatch, 64)
    for fields in (dict(hurst=(0.6,)), dict(hurst=(0.5, 0.6, 0.75)), dict(hurst=(0.5, 0.6), drift="ou:1")):
        job = _job(**fields, steps=64, samples=400, rules=RULES)
        _cpus(monkeypatch, 1)
        inline = run_simulation(job)
        _cpus(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ahead = [run_simulation(job) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(run[key], inline[key]) for run in ahead for key in inline), fields


@pytest.mark.parametrize(
    "hurst, workers, cpus, steps",
    [((0.5, 0.6), 2, 2, 256), ((0.5, 0.6), 1, 1, 256), ((0.6,), 1, 2, 128)],
    ids=["pool", "one-cpu", "below-floor"],
)
def test_pool_one_cpu_and_below_floor_runs_start_no_thread(monkeypatch, pin_chunk, hurst, workers, cpus, steps):
    pin_chunk(4)
    started = _counting_threads(monkeypatch)
    _feed_from(monkeypatch, 256)
    _cpus(monkeypatch, cpus)
    for drift in ("zero", "ou:1"):
        run_simulation(_job(hurst=hurst, steps=steps, samples=40, drift=drift), workers=workers)  # 5 chunks
    assert started == []


@pytest.mark.parametrize(
    "steps, threads", [(256, 0), (4096, 1), (runner.FEED_STEPS // 2, 0), (runner.FEED_STEPS, 1)]
)
def test_a_serial_run_draws_ahead_from_the_grid_floor(monkeypatch, pin_chunk, steps, threads):
    pin_chunk(4)
    started = _counting_threads(monkeypatch)
    _cpus(monkeypatch, 2)

    def no_process(*args, **kwargs):
        raise AssertionError("a run with workers=1 starts no process")

    # a library call at the default workers=1 needs no `__main__` guard under the spawn start method
    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_process)
    # one helper per run, whether it shares whole chunks or, with the Euler loop, each chunk's pairs
    for drift in ("zero", "ou:1"):
        started.clear()
        run_simulation(_job(hurst=(0.5, 0.6), steps=steps, samples=16, drift=drift, rules=RULES))  # 2 chunks
        assert len(started) == threads, drift


def _slow_helper(monkeypatch, started: list, caller_draw=None) -> list:
    """Patch the runner's substream so that opening a pair's Gaussian stream sleeps 5 ms on the helper
    thread, and on any other thread calls `caller_draw` first; return the list of threads that drew, one
    entry per pair."""
    drawn_on = []
    original = runner.substream

    def drawing(master_seed, stream, index):
        if stream == GAUSSIAN_STREAM:
            if threading.current_thread() in started:
                time.sleep(0.005)
            elif caller_draw is not None:
                caller_draw()
            drawn_on.append(threading.current_thread())
        return original(master_seed, stream, index)

    monkeypatch.setattr(runner, "substream", drawing)
    return drawn_on


@pytest.mark.parametrize("hurst", [(0.6,), (0.5, 0.6)])
def test_the_caller_draws_while_the_helper_is_slow(monkeypatch, hurst):
    # 31 pairs: 8 zero-drift chunks the caller and the helper share, or one drifted chunk whose pairs they share
    jobs = [_job(hurst=hurst, drift=drift, samples=61, rules=RULES) for drift in ("zero", "ou:1")]
    inline = [run_simulation(job) for job in jobs]  # below the unlowered floor
    started = _counting_threads(monkeypatch)
    _feed_from(monkeypatch, jobs[0].steps)
    _cpus(monkeypatch, 2)
    drawn_on = _slow_helper(monkeypatch, started)
    for job, expected in zip(jobs, inline):
        started.clear()
        drawn_on.clear()
        ahead = run_simulation(job)
        assert len(started) == 1 and not started[0].is_alive(), job.drift
        assert len(drawn_on) == 31
        assert 0 < drawn_on.count(threading.current_thread()) < 31
        assert all(np.array_equal(ahead[key], expected[key]) for key in expected)


def test_an_error_in_a_pair_the_caller_draws_is_raised_and_leaves_no_thread(monkeypatch):
    def fail():
        raise RuntimeError("no noise on the caller")

    started = _counting_threads(monkeypatch)
    _feed_from(monkeypatch, 256)
    _cpus(monkeypatch, 2)
    _slow_helper(monkeypatch, started, fail)
    for drift in ("zero", "ou:1"):
        started.clear()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^no noise on the caller$"):
            run_simulation(_job(samples=40, drift=drift))
        assert _helpers_done(started, before), drift


def test_a_raising_euler_loop_leaves_no_thread(monkeypatch):
    # every state overflows some 70 steps in, before the marginal the loop must reach
    job = _job(hurst=(0.5, 0.6), drift="linear:1e6,1e6", rules=(), marginal_indices=(256,))
    started = _counting_threads(monkeypatch)
    _feed_from(monkeypatch, job.steps)
    _cpus(monkeypatch, 2)
    before = threading.active_count()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PropagationError):
        run_simulation(job)
    assert len(started) == 1 and _helpers_done(started, before)


# after 0 pairs the helper fails on its first take; after 5 the caller has taken some too
@pytest.mark.parametrize("bad_pair", [0, 5])
def test_an_error_in_the_helper_is_raised_by_the_run(monkeypatch, bad_pair):
    started = _counting_threads(monkeypatch)
    drawn_on = []
    original = runner.substream
    lock = threading.Lock()

    def failing(master_seed, stream, index):
        if stream != GAUSSIAN_STREAM:
            return original(master_seed, stream, index)
        if threading.current_thread() not in started:
            time.sleep(0.005)  # a slow caller lets the helper draw, on one CPU too
        with lock:  # either thread may draw, so count and fail under one lock
            if threading.current_thread() in started and len(drawn_on) >= bad_pair:
                raise RuntimeError(f"no noise after {bad_pair} pairs")
            drawn_on.append(threading.get_ident())
        return original(master_seed, stream, index)

    monkeypatch.setattr(runner, "substream", failing)
    _feed_from(monkeypatch, 256)
    _cpus(monkeypatch, 2)
    for drift in ("zero", "ou:1"):
        started.clear()
        drawn_on.clear()
        before = threading.active_count()
        raised = []

        def run():
            try:
                run_simulation(_job(hurst=(0.5, 0.6), samples=40, drift=drift))
            except RuntimeError as exc:
                raised.append((threading.get_ident(), str(exc)))

        caller = threading.Thread(target=run, daemon=True)  # a hung run must not hold up the test process
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the run must not wait for work that never comes"
        assert raised == [(caller.ident, f"no noise after {bad_pair} pairs")], drift
        assert len(drawn_on) >= bad_pair
        assert _helpers_done(started, before)


@pytest.mark.parametrize("failing_on", ["caller", "helper"])
def test_an_error_on_either_thread_stops_the_other_after_its_item(monkeypatch, failing_on):
    started = _counting_threads(monkeypatch)
    taken = []

    def work(k):
        on_helper = threading.current_thread() in started
        taken.append(k)
        time.sleep(0.002)
        if on_helper == (failing_on == "helper"):
            raise RuntimeError(f"item {k}")
        return k

    before = threading.active_count()
    with runner.ThreadPoolExecutor(1) as helper:
        with pytest.raises(RuntimeError, match="^item "):
            runner._shared(helper, work, 1000)
        assert len(taken) < 10
        assert runner._shared(helper, lambda k: k * k, 50) == [k * k for k in range(50)]
    assert _helpers_done(started, before)


# ---------------------------------------------------------------------------
# bridge uniforms and window extremes
# ---------------------------------------------------------------------------

def test_substream_draws_split_anywhere_give_the_same_values():
    whole = substream(42, UNIFORM_STREAM, 17).random(1000)
    for cuts in ([100], [1, 998], [100, 0, 600], [999]):
        g = substream(42, UNIFORM_STREAM, 17)
        sizes = [*cuts, 1000 - sum(cuts)]
        parts = [g.random(n) for n in sizes]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_each_path_draws_uniforms_only_up_to_its_plain_hit(monkeypatch, pin_chunk):
    drawn = defaultdict(int)
    calls = defaultdict(int)
    original = runner.substream

    class Counting:
        def __init__(self, generator, index):
            self.generator, self.index = generator, index

        def random(self, size, **kwargs):
            drawn[self.index] += size
            calls[self.index] += 1
            return self.generator.random(size, **kwargs)

    def counting(master_seed, stream, index):
        generator = original(master_seed, stream, index)
        return Counting(generator, index) if stream == UNIFORM_STREAM else generator

    monkeypatch.setattr(runner, "substream", counting)
    pin_chunk(7)
    hursts = (0.5, 0.6, 0.8)
    job = _job(hurst=hursts, samples=61, rules=RULES)
    results = run_simulation(job)
    monkeypatch.undo()
    assert np.array_equal(results["bridge"], run_simulation(job)["bridge"])

    step = job.horizon / job.steps
    plain = np.rint(results["simple"] / step)  # inf where censored
    censored = np.isinf(plain).any(axis=0)
    last_hit = np.where(censored, 0, plain.max(axis=0)).astype(int)
    assert censored.any() and not censored.all()
    for i in range(job.samples):
        if censored[i]:
            assert drawn[i] == job.steps
        else:
            assert drawn[i] == max(last_hit[i] - 1, 0) <= last_hit[i]
    assert sum(drawn.values()) < job.samples * job.steps
    # each path lies in one chunk, which draws its uniforms in one call for every H
    assert calls == {i: 1 for i in range(job.samples)}


def test_running_window_extremes_equal_prefix_rescans():
    rng = np.random.default_rng(3)
    paths = np.round(np.cumsum(rng.normal(size=(6, 41)), axis=1))  # rounding makes ties
    paths[0] = 0.0  # flat: every window ties from index 0
    paths[1, 5:9] = paths[1].max() + 1.0  # a plateau across the boundary after index 6
    paths[2, 3] = paths[2, 8] = paths[2].max() + 1.0  # the same maximum in two windows
    paths[3, 12] = paths[3].max() + 1.0  # a new maximum in a later window
    indices = (10, 6, 6, 0, 40, 7)
    sup, where = runner._running_extremes(paths, indices)
    for k, i in enumerate(indices):
        prefix = paths[:, : i + 1]
        assert np.array_equal(sup[:, k], prefix.max(axis=1))
        assert np.array_equal(where[:, k], prefix.argmax(axis=1))
    assert where[1].tolist() == [5, 5, 5, 0, 5, 5]
    assert where[2].tolist() == [3, 3, 3, 0, 3, 3]


def test_running_window_extremes_copy_no_window():
    paths = np.random.default_rng(5).normal(size=(16, 2**14 + 1)).cumsum(axis=1)
    runner._running_extremes(paths, (4096, 8192, 16384))  # one-time allocations
    tracemalloc.start()
    try:
        runner._running_extremes(paths, (4096, 8192, 16384))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, "a window's argmax must not copy it"


# ---------------------------------------------------------------------------
# allocator setting and memory bound
# ---------------------------------------------------------------------------

class _FakeLibc:
    def __init__(self, calls):
        self.mallopt = lambda param, value: calls.append((param, value)) or 1


@pytest.fixture
def fresh_allocator_setting():
    runner._raise_malloc_thresholds.cache_clear()
    yield
    runner._raise_malloc_thresholds.cache_clear()


def test_allocator_setting_applies_once_per_process(monkeypatch, pin_chunk, fresh_allocator_setting):
    calls = []
    monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: _FakeLibc(calls))
    pin_chunk(4)
    run_simulation(_job(samples=40))
    run_simulation(_job(samples=40))
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_allocator_setting_is_a_no_op_without_mallopt(monkeypatch, fresh_allocator_setting):
    monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: object())
    assert runner._raise_malloc_thresholds() is False
    got = run_simulation(_job(samples=40))
    monkeypatch.undo()
    want = run_simulation(_job(samples=40))
    assert np.array_equal(got["simple"], want["simple"])


def test_cli_import_leaves_the_allocator_alone():
    src = str(Path(fbmpassage.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import fbmpassage.cli, fbmpassage.runner as r; print(r._raise_malloc_thresholds.cache_info().misses)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0"]


def test_memory_bound_refuses_a_run_before_allocating(monkeypatch):
    def no_spectrum(*args):
        raise AssertionError("the memory bound must come before any spectrum")

    monkeypatch.setattr(runner, "_noise_scales", no_spectrum)
    monkeypatch.setattr(runner, "_chunk_compute", no_spectrum)
    for job in (
        _job(steps=2**40),
        _job(samples=10**12, steps=16),
        _job(samples=10**7, steps=2**32, drift="ou:1"),  # ~400 GiB at one pair per chunk
    ):
        with pytest.raises(runner.MemoryBudgetError, match="GiB"):
            run_simulation(job)
    # a default job is refused when no chunk the fit tries (4, 2, 1 pairs) fits; at 300
    # paths and 256 steps the 4-pair layout needs least, since array headers grow per chunk
    least = min(runner._memory_estimate(_job(), c, 1) for c in (4, 2, 1))
    monkeypatch.setattr(runner, "_physical_memory", lambda: least - 1)
    with pytest.raises(runner.MemoryBudgetError, match="use fewer steps, samples or workers$"):
        run_simulation(_job())


def _fit_job(**kw):
    """A two-H OU job with every output; at 300 paths, 2 default chunks of 128 pairs, or 5 of 32."""
    outputs = dict(rules=RULES, marginal_indices=(17, 256), extreme_indices=(64, 256))
    return _job(hurst=(0.5, 0.6), drift="ou:1", **outputs, **kw)


def _counting_chunks(monkeypatch) -> list:
    """Patch _chunk_compute to record (job, first pair, pairs) of each serial call."""
    calls = []
    original = runner._chunk_compute

    def counting(job, first_pair, pairs, *draw):
        calls.append((job, first_pair, pairs))
        return original(job, first_pair, pairs, *draw)

    monkeypatch.setattr(runner, "_chunk_compute", counting)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_a_default_chunk_shrinks_to_fit_memory(monkeypatch, pin_chunk, workers):
    job = _fit_job()
    want = run_simulation(job)
    budget = runner._memory_estimate(job, 32, 1)
    assert runner._memory_estimate(job, 128, 1) > budget
    monkeypatch.setattr(runner, "_physical_memory", lambda: budget)
    calls = _counting_chunks(monkeypatch) if workers == 1 else []
    got = run_simulation(job, workers=workers)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[key], want[key]) for key in want)
    if workers == 1:  # halved from 128 to 32 pairs: 150 pairs tiled in order, on the caller's job object
        assert [(first, pairs) for _, first, pairs in calls] == [(0, 32), (32, 32), (64, 32), (96, 32), (128, 22)]
        assert all(called is job for called, _, _ in calls)
    pin_chunk(1)
    one_pair = run_simulation(job)
    assert all(np.array_equal(got[key], one_pair[key]) for key in want)


def test_a_default_chunk_fits_down_to_one_pair(monkeypatch):
    # 10 pairs on 4096 steps: each halving below 10 pairs needs less memory
    job = _fit_job(steps=2**12, samples=20)
    want = run_simulation(job)
    one_pair = runner._memory_estimate(job, 1, 1)
    monkeypatch.setattr(runner, "_physical_memory", lambda: one_pair - 1)
    with pytest.raises(runner.MemoryBudgetError, match="use fewer steps, samples or workers$"):
        run_simulation(job)
    monkeypatch.setattr(runner, "_physical_memory", lambda: one_pair)
    calls = _counting_chunks(monkeypatch)
    got = run_simulation(job)
    assert [(first, pairs) for _, first, pairs in calls] == [(i, 1) for i in range(10)]
    assert all(np.array_equal(got[key], want[key]) for key in want)


def test_memory_estimate_counts_blocks_spectra_and_results(monkeypatch):
    n = 2**10 + 1
    small = 64 << 10  # small objects, per process
    pure = _job(steps=2**10, samples=300, rules=RULES, hurst=(0.5, 0.6))
    # two 16N spectra; 4-pair chunks of 16N of path rows per pair and H;
    # the larger phase is the fill, 4 pairs of 64N each of normals and
    # transform buffer, over the scans' 2N of mask and 16N of log-uniforms
    # and 2 kB per pair and a 32N bridge scan; two H rows of two columns
    # over 300 paths, held twice, and 1 kB of array headers per chunk (38)
    scans = 4 * (18 * n + 2048) + 32 * n
    assert scans < 4 * 64 * n
    assert runner._memory_estimate(pure, 4, 1) == (
        small + 16 * n * 2 + 4 * 32 * n + 4 * 64 * n + 2 * 2 * 8 * 300 * 2 + 1024 * 38
    )
    single = _job(steps=2**10, samples=300, rules=RULES)
    assert runner._memory_estimate(single, 4, 1) == (
        small + 16 * n + 4 * 16 * n + 4 * 64 * n + 2 * 8 * 300 * 2 + 1024 * 38
    )
    # drifted: a 128-pair chunk, whose larger phase is the scans: 2N of
    # mask per pair, and the Euler loop's row check of 4 B per pair and
    # column of a 128-column batch and its tail of 66 B per entry of a
    # 256-entry piece
    euler = 4 * 129 * 128 + 66 * 256
    assert 128 * 2 * n + euler > 4 * 64 * n
    drifted = _job(steps=2**10, samples=300, drift="ou:1")
    assert runner._memory_estimate(drifted, 128, 2) == (
        2 * (small + 16 * n + 128 * 16 * n + 128 * 2 * n + euler) + 2 * 8 * 300 + 1024 * 2
    )
    drifted_multi = _job(steps=2**10, samples=300, drift="ou:1", hurst=(0.5, 0.6))
    assert runner._memory_estimate(drifted_multi, 128, 2) == (
        2 * (small + 16 * n * 2 + 128 * 32 * n + 128 * 2 * n + euler) + 2 * 2 * 8 * 300 + 1024 * 2
    )
    # a one-pair chunk fills one pair
    tiny = _job(steps=2**10, samples=2)
    assert runner._memory_estimate(tiny, 1, 1) == small + 16 * n + 16 * n + 64 * n + 2 * 8 * 2 + 1024
    # window extremes: argmax scans row slices in place, two columns per window
    extremes = _job(steps=2**10, samples=300, rules=(), extreme_indices=(10, 1024))
    assert runner._memory_estimate(extremes, 4, 1) == (
        small + 16 * n + 4 * 16 * n + 4 * 64 * n + 2 * 8 * 300 * 4 + 1024 * 38
    )
    assert runner._memory_estimate(_job(), 4, 1) < runner._physical_memory()
    # at the floor a serial run on two CPUs without the Euler loop holds
    # two chunks at once, one per thread, with one spectrum table
    _feed_from(monkeypatch, 2**10)
    _cpus(monkeypatch, 2)
    assert runner._memory_estimate(pure, 4, 1) == (
        small + 16 * n * 2 + 2 * (4 * 32 * n + 4 * 64 * n) + 2 * 2 * 8 * 300 * 2 + 1024 * 38
    )
    assert runner._memory_estimate(single, 4, 1) == (
        small + 16 * n + 2 * (4 * 16 * n + 4 * 64 * n) + 2 * 8 * 300 * 2 + 1024 * 38
    )
    # and with the Euler loop one chunk, whose two threads fill one pair each
    euler4 = 4 * 129 * 4 + 66 * 256
    assert 4 * 2 * n + euler4 < 2 * 64 * n
    assert runner._memory_estimate(drifted, 4, 1) == (
        small + 16 * n + 4 * 16 * n + 2 * 64 * n + 2 * 8 * 300 + 1024 * 38
    )
    # on two processes no thread shares a run
    assert runner._memory_estimate(pure, 4, 2) == (
        2 * (small + 16 * n * 2 + 4 * 32 * n + 4 * 64 * n) + 2 * 2 * 8 * 300 * 2 + 1024 * 38
    )
    # nor on one CPU, where a serial run fills 4 pairs per call
    _cpus(monkeypatch, 1)
    assert runner._memory_estimate(pure, 4, 1) == (
        small + 16 * n * 2 + 4 * 32 * n + 4 * 64 * n + 2 * 2 * 8 * 300 * 2 + 1024 * 38
    )
    assert runner._memory_estimate(drifted, 4, 1) == (
        small + 16 * n + 4 * 16 * n + 4 * 64 * n + 2 * 8 * 300 + 1024 * 38
    )
    # seventeen H values start from one-pair chunks: seventeen spectra, one
    # pair of path rows at every H and a one-pair fill, and 150 chunks
    many = _job(steps=2**10, samples=300, rules=RULES, hurst=tuple(0.5 + 0.01 * i for i in range(17)))
    assert runner._memory_estimate(many, runner._model_chunk_pairs(many), 1) == (
        small + 16 * n * 17 + 16 * 17 * n + 64 * n + 17 * 2 * 8 * 300 * 2 + 1024 * 150
    )
    # from 2^15 steps too a fill takes 4 pairs
    big, m = _job(steps=2**15, samples=16), 2**15 + 1
    assert runner._memory_estimate(big, 4, 1) == small + 16 * m + 4 * 16 * m + 4 * 64 * m + 2 * 8 * 16 + 1024 * 2


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"hurst": (0.5, 0.6, 0.7), "rules": RULES},
        {"drift": "ou:1", "diffusion": "const:2"},
        {"drift": "ou:1", "samples": 301, "rules": RULES},
        {"drift": "ou:1", "hurst": (0.5, 0.6), "rules": RULES},
        {"hurst": (0.5, 0.7), "rules": (), "extreme_indices": (1024, 4096), "marginal_indices": (7,)},
        {"samples": 301, "chunk_pairs": 7, "rules": RULES},
        {"drift": "ou:1", "samples": 301, "chunk_pairs": 7},
        # no path reaches the level, so every row runs the scalar tail to the end
        {"drift": "ou:1", "threshold": 1e6, "samples": 16, "chunk_pairs": 1},
        # five H values: path rows of every H in a 76-pair drifted chunk
        {"drift": "ou:1", "hurst": (0.5, 0.52, 0.55, 0.6, 0.75)},
        {"hurst": (0.5, 0.52, 0.55, 0.6, 0.75), "rules": RULES},
        # seventeen: a one-pair zero-drift chunk
        {"hurst": tuple(0.5 + 0.025 * i for i in range(17)), "rules": RULES},
        # both rules in 7-pair chunks, where no path hits, so every path draws N log-uniforms
        {"samples": 301, "chunk_pairs": 7, "rules": RULES, "threshold": 1e6},
    ],
)
def test_memory_estimate_bounds_the_traced_peak(pin_chunk, shape):
    shape = dict(shape)
    if "chunk_pairs" in shape:
        pin_chunk(shape.pop("chunk_pairs"))
    job = _job(**{"steps": 2**12, "samples": 256, **shape})
    run_simulation(dataclasses.replace(job, samples=4))  # one-time allocations
    runner._noise_scales.cache_clear()
    tracemalloc.start()
    try:
        run_simulation(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = runner._memory_estimate(job, runner._model_chunk_pairs(job), 1)
    assert peak <= estimate < 1.5 * peak


# ---------------------------------------------------------------------------
# closed-form affine reduction
# ---------------------------------------------------------------------------


def _scalar_euler(noise, a, c, step):
    """y_{n+1} = noise_{n+1} + acc, acc += (a y_n + c) * step, path by path in Python floats."""
    out = np.empty_like(noise)
    for r, row in enumerate(noise.tolist()):
        acc = 0.0
        out[r, 0] = y = row[0]
        for n in range(1, len(row)):
            acc += (a * y + c) * step
            out[r, n] = y = row[n] + acc
    return out


@pytest.mark.parametrize("diffusion", ["const:2", "const:0.5"])
@pytest.mark.parametrize("drift", ["linear:0.7,-0.3", "ou:1.5"])
def test_affine_reduction_matches_tabulated_lamperti_euler(drift, diffusion):
    a, c, s = affine_coefficients(drift, diffusion)
    x0, level, hv = 0.25, 0.25 + 0.75 * s, 0.6  # the reduced level is 0.75
    model = dict(hurst=(hv,), horizon=2.0, samples=40, rules=RULES, marginal_indices=_EVERY_INDEX)
    got = run_simulation(_job(x0=x0, threshold=level, drift=drift, diffusion=diffusion, **model))
    fbm = run_simulation(_job(**model))["marginals"][0]

    step = 2.0 / 256
    # y = (x - x0) / s has unit diffusion and drift a y + (a x0 + c) / s
    reduced = _scalar_euler(fbm, a, (a * x0 + c) / s, step)
    assert np.max(np.abs(got["marginals"][0] - (x0 + s * reduced))) <= 1e-10

    thr = (level - x0) / s
    log_u = np.log([substream(42, UNIFORM_STREAM, i).random(256) for i in range(40)])
    bridge = _bridge_hit_times_batch(
        reduced, thr, step, step ** (2.0 * hv), log_u, _plain_hit_index(reduced, thr)
    )
    plain = [np.argmax(row >= thr) * step if (row >= thr).any() else np.inf for row in reduced]
    assert np.array_equal(got["simple"][0], plain)
    assert np.array_equal(got["bridge"][0], bridge)
    assert np.isfinite(got["simple"]).any() and not np.isfinite(got["simple"]).all()


@pytest.mark.parametrize("s", [2.0, 0.5])
def test_zero_drift_constant_diffusion_is_scaled_fbm(monkeypatch, s):
    def no_loop(*args):
        raise AssertionError("zero reduced drift must not step an Euler loop")

    monkeypatch.setattr(runner, "affine_euler", no_loop)
    with pytest.raises(AssertionError, match="Euler loop"):  # a drifted run steps through this name
        run_simulation(_job(drift="ou:1", samples=4))
    x0, level = 0.5, 1.5
    outputs = dict(rules=RULES, marginal_indices=(0, 100, 256), extreme_indices=(50, 256))
    scaled = run_simulation(_job(x0=x0, threshold=level, diffusion=f"const:{s:g}", **outputs))
    # x0 + (level - x0) / s is exact in binary for these s
    pure = run_simulation(_job(x0=x0, threshold=x0 + (level - x0) / s, **outputs))
    fbm = run_simulation(_job(**outputs))
    assert np.array_equal(scaled["simple"], pure["simple"])
    assert np.array_equal(scaled["bridge"], pure["bridge"])
    assert np.array_equal(scaled["marginals"], x0 + s * fbm["marginals"])
    assert np.array_equal(scaled["sup_values"], x0 + s * fbm["sup_values"])
    assert np.array_equal(scaled["argmax_times"], fbm["argmax_times"])


@pytest.mark.parametrize("seed", [1729, 7, 2024])
def test_ou_euler_marginals_follow_their_exact_gaussian_law(seed):
    """The Euler marginal of dX = -X dt + s dB is s w_n . xi for fGn increments
    xi, so E cos X_n = exp(-s^2 w_n' Gamma w_n / 2) exactly, whatever the mesh."""
    indices = (8, 32, 64, 128, 192, 256)
    job = SimulationJob(
        hurst=(0.6,), horizon=5.0, steps=256, samples=4000, master_seed=seed,
        drift="ou:1", diffusion="const:2", rules=(), marginal_indices=indices,
    )
    marginals = run_simulation(job)["marginals"][0]
    a, s = -1.0, 2.0
    step = job.horizon / job.steps
    # y_n = B_n + acc_n with acc_n = acc_{n-1} + a step y_{n-1}: weights of y_n on xi_0..xi_{N-1}
    weights = np.zeros((job.steps + 1, job.steps))
    acc = np.zeros(job.steps)
    for n in range(1, job.steps + 1):
        acc = acc + a * step * weights[n - 1]
        weights[n] = (np.arange(job.steps) < n) + acc
    lags = np.abs(np.subtract.outer(np.arange(job.steps), np.arange(job.steps)))
    gamma = fgn_autocovariance(0.6, lags, step)
    for column, n in enumerate(indices):
        variance = s**2 * weights[n] @ gamma @ weights[n]
        cosines = np.cos(marginals[:, column])
        z = (cosines.mean() - math.exp(-variance / 2.0)) / (cosines.std(ddof=1) / math.sqrt(job.samples))
        assert abs(z) <= 4.0, (n, z)


# ---------------------------------------------------------------------------
# early-stopped Euler loop
# ---------------------------------------------------------------------------

def _full_loop(values, a, c, step, *read_range):
    """The runner's Euler call without its level and read column: every state stepped."""
    return affine_euler(values, a, c, step)


_READS = [
    dict(rules=RULES),
    dict(rules=RULES, marginal_indices=(0, 3, 40), extreme_indices=(10, 60)),
    dict(rules=(), marginal_indices=(5, 90)),
    dict(threshold=0.25, marginal_indices=(256,)),  # every path starts at the level
]


@pytest.mark.parametrize("outputs", range(len(_READS)))
@pytest.mark.parametrize("chunk_pairs", [1, 7, 128])
@pytest.mark.parametrize("drift", ["ou:1", "linear:0.7,-0.3"])
def test_early_stopped_run_equals_full_loop_run(monkeypatch, pin_chunk, drift, chunk_pairs, outputs):
    pin_chunk(chunk_pairs)
    job = _job(drift=drift, diffusion="const:2", x0=0.25, samples=301, **_READS[outputs])
    got = run_simulation(job)
    monkeypatch.setattr(runner, "affine_euler", _full_loop)
    want = run_simulation(job)
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].tobytes() == want[name].tobytes(), name
    if "simple" in job.rules and job.threshold > job.x0:
        assert np.isfinite(got["simple"]).any() and not np.isfinite(got["simple"]).all()


def test_padding_row_of_an_odd_sample_count_is_not_stepped(monkeypatch, pin_chunk):
    rows = []

    def spy(values, *args):
        rows.append(len(values))
        return affine_euler(values, *args)

    monkeypatch.setattr(runner, "affine_euler", spy)
    pin_chunk(3)
    run_simulation(_job(drift="ou:1", samples=11))
    assert rows == [6, 5]


@pytest.mark.parametrize("chunk_pairs", [1, 128])
def test_overflow_after_every_passage_completes(pin_chunk, chunk_pairs):
    # y1 = noise + 1e6 * step: every path is above the level at the first
    # step, and the states overflow some 70 steps later, which a 256-row
    # block loop steps before it checks which rows have passed
    drift = "linear:1e6,1e6"
    pin_chunk(chunk_pairs)
    job = _job(drift=drift, rules=RULES, marginal_indices=(0, 1))
    got = run_simulation(job)

    fbm = run_simulation(_job(rules=(), marginal_indices=_EVERY_INDEX))["marginals"][0]
    a, c, _ = affine_coefficients(drift, "one")
    step = job.horizon / job.steps
    reduced = _scalar_euler(fbm, a, c, step)
    assert not np.isfinite(reduced[:, 100]).any()
    with pytest.raises(PropagationError):
        affine_euler(fbm.copy(), a, c, step)
    want = _grid_times(_plain_hit_index(reduced, 1.0), job.steps, step)
    assert (want == step).all()
    assert np.array_equal(got["simple"][0], want)
    assert np.array_equal(got["bridge"][0], want)
    assert got["marginals"][0].tobytes() == reduced[:, :2].tobytes()
