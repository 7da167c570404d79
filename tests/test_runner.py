"""Deterministic chunked Monte Carlo driver.

Covers:
  - Bit-identical results across worker counts and chunk sizes.
  - Seed separation: different seeds decorrelate, same seed reproduces.
  - Shift invariance of the pure zero-drift case: moving the start is the
    same as moving the threshold.
  - Marginal extraction: shapes, variance statistics, index validation.
  - Suprema / argmax windows: pathwise monotonicity in the window length.
  - Job validation and the pure-case fast path.
  - Multi-H jobs: one job over several H values equals the single-H jobs
    bit for bit, and draws each pair's normals and each path's uniforms
    once per run.
  - Lazy uniforms: a Philox substream's draws split anywhere give the same
    values, and each path draws no uniform past its plain hit.
  - Window extremes from running maxima equal a rescan of every prefix,
    ties included.
  - The allocator setting runs once per process, on its first run or chunk, and
    never on import; the memory bound refuses a run before allocating.
  - Closed-form affine reduction: registry models agree with the tabulated
    Lamperti map plus a per-path Euler loop, and zero drift with constant
    diffusion is scaled fBm with no Euler loop at all.
"""

import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from fbmpassage import (
    GAUSSIAN_STREAM,
    UNIFORM_STREAM,
    Coefficients,
    FbmPath,
    Hurst,
    SimulationJob,
    TimeGrid,
    build_lamperti,
    diffusion_from_name,
    drift_from_name,
    euler_solve,
    first_passage,
    marginal_values,
    passage_times,
    path_extremes,
    run_simulation,
    substream,
    threshold_transform,
)
import fbmpassage
from fbmpassage import runner
from fbmpassage.passage import _bridge_hit_times_batch, _plain_hit_index
from fbmpassage.sde import affine_coefficients


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
    job = _job(want_bridge=True)
    (serial,) = run_simulation(job, workers=1)
    (pooled,) = run_simulation(job, workers=3)
    assert np.array_equal(serial.tau_simple, pooled.tau_simple)
    assert np.array_equal(serial.tau_bridge, pooled.tau_bridge)


def test_chunk_size_is_observationally_irrelevant():
    (a,) = run_simulation(_job(chunk_pairs=16, want_bridge=True))
    (b,) = run_simulation(_job(chunk_pairs=128, want_bridge=True))
    assert np.array_equal(a.tau_simple, b.tau_simple)
    assert np.array_equal(a.tau_bridge, b.tau_bridge)


def test_same_seed_reproduces_different_seed_changes():
    (a,) = run_simulation(_job())
    (b,) = run_simulation(_job())
    (c,) = run_simulation(_job(master_seed=43))
    assert np.array_equal(a.tau_simple, b.tau_simple)
    assert not np.array_equal(a.tau_simple, c.tau_simple)


def test_sample_prefix_stability():
    """The first paths of a longer run are exactly a shorter run."""
    (small,) = run_simulation(_job(samples=100))
    (large,) = run_simulation(_job(samples=300))
    assert np.array_equal(large.tau_simple[:100], small.tau_simple)


# ---------------------------------------------------------------------------
# pure-case reductions
# ---------------------------------------------------------------------------

def test_start_shift_equals_threshold_shift():
    """With zero drift and unit diffusion only threshold - x0 matters."""
    shifted = passage_times(
        Hurst(0.55), TimeGrid(5.0, 512), 400, 4711, threshold=1.0, x0=0.2
    )["simple"]
    rebased = passage_times(
        Hurst(0.55), TimeGrid(5.0, 512), 400, 4711, threshold=0.8, x0=0.0
    )["simple"]
    assert np.array_equal(shifted, rebased)


def test_is_pure_flag():
    assert _job().is_pure
    assert not _job(drift="ou:0.5").is_pure
    assert not _job(diffusion="const:2").is_pure
    assert _job(x0=0.3).is_pure  # a start shift keeps the fast path


def test_drifted_run_hits_earlier_on_average():
    # a positive constant push toward the threshold can only speed hits up
    pure = passage_times(Hurst(0.5), TimeGrid(5.0, 256), 400, 31, estimators=("simple",))
    pushed = passage_times(
        Hurst(0.5), TimeGrid(5.0, 256), 400, 31,
        drift="linear:0,0.5", estimators=("simple",),
    )
    frac_pure = np.isfinite(pure["simple"]).mean()
    frac_pushed = np.isfinite(pushed["simple"]).mean()
    assert frac_pushed > frac_pure


# ---------------------------------------------------------------------------
# marginals and extremes
# ---------------------------------------------------------------------------

def test_marginal_values_shape_and_variance():
    grid = TimeGrid(4.0, 512)
    h = Hurst(0.7)
    idx = [grid.time_index(1.0), grid.time_index(4.0)]
    marg = marginal_values(h, grid, 4000, 2020, idx)
    assert marg.shape == (4000, 2)
    for col, t in zip(range(2), (1.0, 4.0)):
        var = marg[:, col].var(ddof=1)
        want = t ** (2.0 * h.value)
        z = (var - want) / (want * np.sqrt(2.0 / (len(marg) - 1)))
        assert abs(z) < 5.0, f"t={t}: variance z = {z:.2f}"


def test_path_extremes_window_monotonicity():
    grid = TimeGrid(10.0, 1024)
    idx = [grid.time_index(2.0), grid.time_index(5.0), grid.time_index(10.0)]
    sups, args = path_extremes(Hurst(0.6), grid, 500, 808, idx)
    assert sups.shape == (500, 3)
    assert (np.diff(sups, axis=1) >= 0.0).all(), "sup grows with the window"
    assert (np.diff(args, axis=1) >= 0.0).all(), "first argmax never moves left"
    assert (args[:, 0] <= 2.0 + 1e-12).all()
    assert (sups[:, 0] >= 0.0).all()  # paths start at zero


def test_extremes_argmax_is_first_attaining_time():
    grid = TimeGrid(10.0, 256)
    sups, args = path_extremes(Hurst(0.5), grid, 200, 11, [grid.steps])
    marg = marginal_values(Hurst(0.5), grid, 200, 11, list(range(grid.steps + 1)))
    for i in range(200):
        j = int(np.flatnonzero(marg[i] == sups[i, 0])[0])
        assert args[i, 0] == pytest.approx(j * grid.step, abs=1e-12)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_job_validation():
    with pytest.raises(ValueError):
        run_simulation(_job(samples=0))
    with pytest.raises(ValueError):
        run_simulation(_job(chunk_pairs=0))
    with pytest.raises(ValueError):
        run_simulation(_job(hurst=(1.2,)))
    with pytest.raises(ValueError):
        run_simulation(_job(hurst=()))
    with pytest.raises(ValueError):
        run_simulation(_job(), workers=0)
    with pytest.raises(ValueError):
        run_simulation(_job(marginal_indices=(9999,)))  # off the grid


def test_start_at_threshold_hits_immediately():
    """Degenerate but well defined: every path is over the line at t=0."""
    (res,) = run_simulation(_job(x0=1.0, samples=50))
    assert np.array_equal(res.tau_simple, np.zeros(50))


def test_passage_times_estimator_selection():
    out = passage_times(Hurst(0.5), TimeGrid(2.0, 128), 100, 5, estimators=("simple",))
    assert set(out) == {"simple"}
    both = passage_times(
        Hurst(0.5), TimeGrid(2.0, 128), 100, 5, estimators=("simple", "bridge")
    )
    assert set(both) == {"simple", "bridge"}
    with pytest.raises(ValueError):
        passage_times(Hurst(0.5), TimeGrid(2.0, 128), 100, 5, estimators=("typo",))


# ---------------------------------------------------------------------------
# multi-H jobs
# ---------------------------------------------------------------------------

_MODELS = {
    "pure": dict(x0=0.2),
    "ou-const2": dict(drift="ou:1", diffusion="const:2"),
}
_OUTPUTS = ("tau_simple", "tau_bridge", "marginals", "sup_values", "argmax_times")


def _all_outputs_job(model, **kw):
    # an odd sample count leaves the last pair half used
    return _job(
        samples=61,
        want_bridge=True,
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
    assert len(multi) == len(hursts)
    for h, got in zip(hursts, multi):
        (want,) = run_simulation(_all_outputs_job(model, hurst=(h,)))
        for name in _OUTPUTS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), (h, name)


@pytest.mark.parametrize("hursts", [(0.6,), (0.5, 0.55, 0.6, 0.7, 0.9)])
def test_each_stream_is_requested_once_per_run(monkeypatch, hursts):
    requests = Counter()
    original = runner.substream

    def counting(master_seed, stream, index):
        requests[stream, index] += 1
        return original(master_seed, stream, index)

    monkeypatch.setattr(runner, "substream", counting)
    run_simulation(_job(hurst=hursts, samples=61, chunk_pairs=7, want_bridge=True))
    gaussian = {i: n for (stream, i), n in requests.items() if stream == GAUSSIAN_STREAM}
    uniform = {i: n for (stream, i), n in requests.items() if stream == UNIFORM_STREAM}
    assert gaussian == {k: 1 for k in range(31)}
    assert uniform == {i: 1 for i in range(61)}


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
    job = _job(hurst=hursts, samples=61, chunk_pairs=7, want_bridge=True)
    results = run_simulation(job)
    monkeypatch.undo()
    assert all(np.array_equal(a.tau_bridge, b.tau_bridge) for a, b in zip(results, run_simulation(job)))

    step = job.horizon / job.steps
    plain = np.rint(np.array([r.tau_simple for r in results]) / step)  # inf where censored
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
    (got,) = run_simulation(_job(samples=40))
    monkeypatch.undo()
    (want,) = run_simulation(_job(samples=40))
    assert np.array_equal(got.tau_simple, want.tau_simple)


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
    monkeypatch.setattr(runner, "_physical_memory", lambda: 1 << 16)
    with pytest.raises(runner.MemoryBudgetError):
        run_simulation(_job())


def test_memory_estimate_counts_blocks_spectra_and_results():
    n = 2**10 + 1
    pure = _job(steps=2**10, samples=300, want_bridge=True, hurst=(0.5, 0.6))
    # two 16N spectra and a 32N transform buffer, 8-pair blocks of 66N per
    # pair, and two results of two columns over 300 paths, held twice
    assert runner._memory_estimate(pure, 1) == 16 * n * 2 + 32 * n + 8 * 66 * n + 2 * 8 * 300 * 2 * 2
    drifted = _job(steps=2**10, samples=300, drift="ou:1")
    assert runner._memory_estimate(drifted, 2) == 2 * (16 * n + 32 * n + 128 * 50 * n) + 2 * 8 * 300
    assert runner._memory_estimate(_job(), 1) < runner._physical_memory()


# ---------------------------------------------------------------------------
# closed-form affine reduction
# ---------------------------------------------------------------------------

_EVERY_INDEX = tuple(range(257))


@pytest.mark.parametrize("diffusion", ["const:2", "const:0.5"])
@pytest.mark.parametrize("drift", ["linear:0.7,-0.3", "ou:1.5"])
def test_affine_reduction_matches_tabulated_lamperti_euler(drift, diffusion):
    _, _, s = affine_coefficients(drift, diffusion)
    x0, level, hv = 0.25, 0.25 + 0.75 * s, 0.6  # the reduced level is 0.75
    model = dict(hurst=(hv,), horizon=2.0, samples=40, want_bridge=True, marginal_indices=_EVERY_INDEX)
    (got,) = run_simulation(_job(x0=x0, threshold=level, drift=drift, diffusion=diffusion, **model))
    (fbm,) = run_simulation(_job(**model))

    grid = TimeGrid(2.0, 256)
    coeffs = Coefficients(drift_from_name(drift), diffusion_from_name(diffusion))
    lamperti = build_lamperti(coeffs, x0, (x0 - 100.0, x0 + 100.0))
    reduced = np.array(
        [euler_solve(lamperti.reduced_drift, 0.0, FbmPath(b, grid, Hurst(hv))).values for b in fbm.marginals]
    )
    assert np.max(np.abs(got.marginals - lamperti.inverse(reduced))) <= 1e-10

    thr = threshold_transform(lamperti, level)
    uniforms = np.array([substream(42, UNIFORM_STREAM, i).random(grid.steps) for i in range(40)])
    bridge = _bridge_hit_times_batch(
        reduced, thr, grid.step, grid.step ** (2.0 * hv), np.log(uniforms), _plain_hit_index(reduced, thr)
    )
    plain = [first_passage(FbmPath(row, grid, Hurst(hv)), thr) for row in reduced]
    assert np.array_equal(got.tau_simple, [out.hit_time if out.is_hit else np.inf for out in plain])
    assert np.array_equal(got.tau_bridge, bridge)
    assert np.isfinite(got.tau_simple).any() and not np.isfinite(got.tau_simple).all()


@pytest.mark.parametrize("s", [2.0, 0.5])
def test_zero_drift_constant_diffusion_is_scaled_fbm(monkeypatch, s):
    def no_loop(*args):
        raise AssertionError("zero reduced drift must not step an Euler loop")

    monkeypatch.setattr(runner, "affine_euler", no_loop)
    x0, level = 0.5, 1.5
    outputs = dict(want_bridge=True, marginal_indices=(0, 100, 256), extreme_indices=(50, 256))
    (scaled,) = run_simulation(_job(x0=x0, threshold=level, diffusion=f"const:{s:g}", **outputs))
    # x0 + (level - x0) / s is exact in binary for these s
    (pure,) = run_simulation(_job(x0=x0, threshold=x0 + (level - x0) / s, **outputs))
    (fbm,) = run_simulation(_job(**outputs))
    assert np.array_equal(scaled.tau_simple, pure.tau_simple)
    assert np.array_equal(scaled.tau_bridge, pure.tau_bridge)
    assert np.array_equal(scaled.marginals, x0 + s * fbm.marginals)
    assert np.array_equal(scaled.sup_values, x0 + s * fbm.sup_values)
    assert np.array_equal(scaled.argmax_times, fbm.argmax_times)
