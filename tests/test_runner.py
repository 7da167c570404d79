"""Deterministic chunked Monte Carlo driver.

Covers:
  - Bit-identical results across worker counts and chunk sizes.
  - Seed separation: different seeds decorrelate, same seed reproduces.
  - Shift invariance of the pure zero-drift case: moving the start is the
    same as moving the threshold.
  - Marginal extraction: shapes, variance statistics, index validation.
  - Suprema / argmax windows: pathwise monotonicity in the window length.
  - Job validation (rule names outside RULES or repeated included) and the
    pure-case fast path.
  - The output mapping: exactly the requested keys, each array indexed
    [H, path].
  - Multi-H jobs: one job over several H values equals the single-H jobs
    bit for bit, and draws each pair's normals and each path's uniforms
    once per run.
  - Block assembly: every path, pure or through the Euler loop, equals the
    prefix sum of its sample_fgn row bit for bit, for one and several H,
    partial last blocks and a half-used last pair.
  - Lazy uniforms: a Philox substream's draws split anywhere give the same
    values, and each path draws no uniform past its plain hit.
  - Window extremes equal a rescan of every prefix, ties included, and
    copy no window.
  - The allocator setting runs once per process, on its first run or chunk, and
    never on import; the memory bound refuses a run before allocating,
    counts blocks, spectra, the transform buffer and results exactly, and
    bounds the traced peak of eight job shapes from above.
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
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from fbmpassage import (
    GAUSSIAN_STREAM, RULES, UNIFORM_STREAM, SimulationJob, circulant_spectrum, fgn_autocovariance, run_simulation,
    sample_fgn, substream,
)
import fbmpassage
from fbmpassage import runner
from fbmpassage.cli import _grid_index
from fbmpassage.passage import _bridge_hit_times_batch, _grid_times, _plain_hit_index
from fbmpassage.sde import PropagationError, affine_coefficients, affine_euler


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


def test_chunk_size_is_observationally_irrelevant():
    a = run_simulation(_job(chunk_pairs=16, rules=RULES))
    b = run_simulation(_job(chunk_pairs=128, rules=RULES))
    assert np.array_equal(a["simple"], b["simple"])
    assert np.array_equal(a["bridge"], b["bridge"])


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


def test_is_pure_flag():
    assert _job().is_pure
    assert not _job(drift="ou:0.5").is_pure
    assert not _job(diffusion="const:2").is_pure
    assert _job(x0=0.3).is_pure  # a start shift keeps the fast path
    # the coefficients decide, not the spelling of the specs
    assert _job(drift="linear:0,0").is_pure
    assert _job(drift="ou:0").is_pure
    assert _job(diffusion="const:1").is_pure
    assert not _job(drift="linear:0,0.5").is_pure
    assert not _job(drift="linear:0.5,0").is_pure


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

def test_job_validation():
    with pytest.raises(ValueError):
        run_simulation(_job(samples=0))
    with pytest.raises(ValueError):
        run_simulation(_job(chunk_pairs=0))
    # seeds, counts, indices and levels of the wrong kind fail before any chunk runs
    bad_fields = [
        ("master_seed", 1.5, "master_seed must be an integer"),
        ("master_seed", True, "master_seed must be an integer"),
        ("master_seed", -1, "master_seed must be an integer"),
        ("master_seed", 2**64, "master_seed must be an integer"),
        ("steps", 64.0, "steps must be an integer"),
        ("samples", 10.5, "samples must be an integer"),
        ("samples", True, "samples must be an integer"),
        ("chunk_pairs", 2.5, "chunk_pairs must be an integer"),
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
    top = 2**64 - 1
    numpy_key = substream(np.uint64(top), np.int64(UNIFORM_STREAM), np.int32(3)).random(8)
    assert np.array_equal(numpy_key, substream(top, UNIFORM_STREAM, 3).random(8))
    top_seed = run_simulation(_job(steps=64, samples=10, master_seed=np.uint64(top)))
    assert np.array_equal(top_seed["simple"], run_simulation(_job(steps=64, samples=10, master_seed=top))["simple"])
    # a bool step count is no grid
    for sampler in (circulant_spectrum, lambda *grid: fbmpassage.cholesky_fbm(*grid, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="steps must be a positive integer, got True"):
            sampler(0.6, 1.0, True)
    i64 = np.int64
    numpy_ints = run_simulation(_job(steps=64, samples=i64(10), marginal_indices=(i64(3),), extreme_indices=(i64(5),)))
    plain_ints = run_simulation(_job(steps=64, samples=10, marginal_indices=(3,), extreme_indices=(5,)))
    assert all(np.array_equal(numpy_ints[key], plain_ints[key]) for key in plain_ints)
    with pytest.raises(ValueError):
        run_simulation(_job(hurst=(1.2,)))
    with pytest.raises(ValueError):
        run_simulation(_job(hurst=()))
    with pytest.raises(ValueError):
        run_simulation(_job(), workers=0)
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
def test_multi_h_job_equals_single_h_jobs(model, chunk_pairs, workers):
    hursts = (0.5, 0.6, 0.75)
    multi = run_simulation(_all_outputs_job(model, hurst=hursts, chunk_pairs=chunk_pairs), workers=workers)
    assert all(len(array) == len(hursts) for array in multi.values())
    for k, h in enumerate(hursts):
        want = run_simulation(_all_outputs_job(model, hurst=(h,)))
        for name in _OUTPUTS:
            assert np.array_equal(multi[name][k], want[name][0]), (h, name)


@pytest.mark.parametrize(
    "outputs, keys",
    [
        (dict(rules=RULES, marginal_indices=(0, 100, 256), extreme_indices=(50, 256)), _OUTPUTS),
        (dict(rules=("bridge",), extreme_indices=(50,)), ("bridge", "sup_values", "argmax_times")),
        (dict(rules=(), marginal_indices=(7,)), ("marginals",)),
        (dict(rules=()), ()),
    ],
)
def test_output_mapping_holds_exactly_the_requested_keys(outputs, keys):
    hursts = (0.5, 0.6, 0.75)
    job = _job(hurst=hursts, samples=61, chunk_pairs=7, drift="ou:1", diffusion="const:2", **outputs)
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
def test_each_stream_is_requested_once_per_run(monkeypatch, hursts):
    requests = Counter()
    original = runner.substream

    def counting(master_seed, stream, index):
        requests[stream, index] += 1
        return original(master_seed, stream, index)

    monkeypatch.setattr(runner, "substream", counting)
    run_simulation(_job(hurst=hursts, samples=61, chunk_pairs=7, rules=RULES))
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
def test_block_paths_equal_summed_sample_fgn_rows(chunk_pairs, hursts, drift):
    # 11 paths: a partial last block, and the last pair's second path unused
    job = _job(
        hurst=hursts, samples=11, drift=drift, chunk_pairs=chunk_pairs, rules=(), marginal_indices=_EVERY_INDEX
    )
    a, c, s = affine_coefficients(job.drift, job.diffusion)
    for h, got in zip(hursts, run_simulation(job)["marginals"]):
        spectrum = circulant_spectrum(h, job.horizon, job.steps)
        rows = np.concatenate([sample_fgn(spectrum, substream(42, GAUSSIAN_STREAM, k)) for k in range(6)])
        paths = np.zeros((12, job.steps + 1))
        np.add.accumulate(rows, axis=1, out=paths[:, 1:])
        affine_euler(paths, a, (a * job.x0 + c) / s, job.horizon / job.steps)  # a = c = 0 leaves the sums as they are
        assert (got == job.x0 + s * paths[:11]).all(), h


# ---------------------------------------------------------------------------
# lazy uniforms and window extremes
# ---------------------------------------------------------------------------

def test_substream_draws_split_anywhere_give_the_same_values():
    whole = substream(42, UNIFORM_STREAM, 17).random(1000)
    for cuts in ([100], [1, 998], [100, 0, 600], [999]):
        g = substream(42, UNIFORM_STREAM, 17)
        sizes = [*cuts, 1000 - sum(cuts)]
        parts = [g.random(n) for n in sizes]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_each_path_draws_uniforms_only_up_to_its_plain_hit(monkeypatch):
    drawn = defaultdict(int)
    original = runner.substream

    class Counting:
        def __init__(self, generator, index):
            self.generator, self.index = generator, index

        def random(self, size, **kwargs):
            drawn[self.index] += size
            return self.generator.random(size, **kwargs)

    def counting(master_seed, stream, index):
        generator = original(master_seed, stream, index)
        return Counting(generator, index) if stream == UNIFORM_STREAM else generator

    monkeypatch.setattr(runner, "substream", counting)
    hursts = (0.5, 0.6, 0.8)
    job = _job(hurst=hursts, samples=61, chunk_pairs=7, rules=RULES)
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


def test_allocator_setting_applies_once_per_process(monkeypatch, fresh_allocator_setting):
    calls = []
    monkeypatch.setattr(runner.ctypes, "CDLL", lambda name: _FakeLibc(calls))
    run_simulation(_job(samples=40, chunk_pairs=4))
    run_simulation(_job(samples=40, chunk_pairs=4))
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

    monkeypatch.setattr(runner, "_noise_scale", no_spectrum)
    monkeypatch.setattr(runner, "_chunk_compute", no_spectrum)
    for job in (
        _job(steps=2**40),
        _job(samples=10**12, steps=16),
        _job(samples=10**7, steps=2**16, drift="ou:1", chunk_pairs=10**7),
    ):
        with pytest.raises(runner.MemoryBudgetError, match="GiB"):
            run_simulation(job)
    monkeypatch.setattr(runner, "_physical_memory", lambda: runner._memory_estimate(_job(), 1) - 1)
    with pytest.raises(runner.MemoryBudgetError):
        run_simulation(_job())


def test_memory_estimate_counts_blocks_spectra_and_results():
    n = 2**10 + 1
    small = 64 << 10  # small objects, per process
    pure = _job(steps=2**10, samples=300, rules=RULES, hurst=(0.5, 0.6))
    # two 16N spectra and a 32N temporary; 4-pair blocks with a 4-row 32N
    # transform buffer, 66N per pair (32N of it stashed noise) and two 1 kB
    # generators per pair; two H rows of two columns over 300 paths, held
    # twice, and 1 kB of array headers per chunk (two chunks) and H
    assert runner._memory_estimate(pure, 1) == (
        small + 16 * n * 2 + 32 * n + 4 * 32 * n + 4 * (66 * n + 2048) + 2 * (2 * 8 * 300 * 2 + 1024 * 2)
    )
    # one H: the noise is drawn into the transform buffer, no stash
    single = _job(steps=2**10, samples=300, rules=RULES)
    assert runner._memory_estimate(single, 1) == (
        small + 16 * n + 32 * n + 4 * 32 * n + 4 * (34 * n + 2048) + 2 * 8 * 300 * 2 + 1024 * 2
    )
    # drifted: the block is the whole 128-pair chunk, transformed four pairs
    # at a time; the Euler loop's row check takes 4 B per pair and column of
    # a 128-column batch, and its tail 66 B per entry of a 256-entry piece
    euler = 4 * 129 * 128 + 66 * 256
    drifted = _job(steps=2**10, samples=300, drift="ou:1")
    assert runner._memory_estimate(drifted, 2) == (
        2 * (small + 16 * n + 32 * n + 4 * 32 * n + euler + 128 * 18 * n) + 2 * 8 * 300 + 1024 * 2
    )
    drifted_multi = _job(steps=2**10, samples=300, drift="ou:1", hurst=(0.5, 0.6))
    assert runner._memory_estimate(drifted_multi, 2) == (
        2 * (small + 16 * n * 2 + 32 * n + 4 * 32 * n + euler + 128 * 50 * n) + 2 * (2 * 8 * 300 + 1024 * 2)
    )
    # a one-pair chunk holds a one-row transform buffer
    tiny = _job(steps=2**10, samples=2, chunk_pairs=1)
    assert runner._memory_estimate(tiny, 1) == small + 16 * n + 32 * n + 32 * n + 18 * n + 2 * 8 * 2 + 1024
    # window extremes: argmax scans row slices in place, two columns per window
    extremes = _job(steps=2**10, samples=300, rules=(), extreme_indices=(10, 1024))
    assert runner._memory_estimate(extremes, 1) == (
        small + 16 * n + 32 * n + 4 * 32 * n + 4 * 18 * n + 2 * 8 * 300 * 4 + 1024 * 2
    )
    assert runner._memory_estimate(_job(), 1) < runner._physical_memory()


@pytest.mark.parametrize(
    "shape",
    [
        {},
        {"hurst": (0.5, 0.6, 0.7), "rules": RULES},
        {"drift": "ou:1", "diffusion": "const:2"},
        {"drift": "ou:1", "hurst": (0.5, 0.6), "rules": RULES},
        {"hurst": (0.5, 0.7), "rules": (), "extreme_indices": (1024, 4096), "marginal_indices": (7,)},
        {"samples": 301, "chunk_pairs": 7, "rules": RULES},
        {"drift": "ou:1", "samples": 301, "chunk_pairs": 7},
        # no path reaches the level, so every row runs the scalar tail to the end
        {"drift": "ou:1", "threshold": 1e6, "samples": 16, "chunk_pairs": 1},
    ],
)
def test_memory_estimate_bounds_the_traced_peak(shape):
    job = _job(**{"steps": 2**12, "samples": 256, **shape})
    run_simulation(dataclasses.replace(job, samples=4))  # one-time allocations
    runner._noise_scale.cache_clear()
    tracemalloc.start()
    try:
        run_simulation(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = runner._memory_estimate(job, 1)
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
        reduced, thr, step, step ** (2.0 * hv), lambda r, n: log_u[r, :n], _plain_hit_index(reduced, thr)
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
def test_early_stopped_run_equals_full_loop_run(monkeypatch, drift, chunk_pairs, outputs):
    job = _job(drift=drift, diffusion="const:2", x0=0.25, samples=301, chunk_pairs=chunk_pairs, **_READS[outputs])
    got = run_simulation(job)
    monkeypatch.setattr(runner, "affine_euler", _full_loop)
    want = run_simulation(job)
    assert got.keys() == want.keys()
    for name in got:
        assert got[name].tobytes() == want[name].tobytes(), name
    if "simple" in job.rules and job.threshold > job.x0:
        assert np.isfinite(got["simple"]).any() and not np.isfinite(got["simple"]).all()


def test_padding_row_of_an_odd_sample_count_is_not_stepped(monkeypatch):
    rows = []

    def spy(values, *args):
        rows.append(len(values))
        return affine_euler(values, *args)

    monkeypatch.setattr(runner, "affine_euler", spy)
    run_simulation(_job(drift="ou:1", samples=11, chunk_pairs=3))
    assert rows == [6, 5]


@pytest.mark.parametrize("chunk_pairs", [1, 128])
def test_overflow_after_every_passage_completes(chunk_pairs):
    # y1 = noise + 1e6 * step: every path is above the level at the first
    # step, and the states overflow some 70 steps later, which a 256-row
    # block loop steps before it checks which rows have passed
    drift = "linear:1e6,1e6"
    job = _job(drift=drift, rules=RULES, marginal_indices=(0, 1), chunk_pairs=chunk_pairs)
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
