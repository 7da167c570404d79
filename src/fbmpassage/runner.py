"""Deterministic chunked Monte Carlo driver.

Paths are indexed 0..samples-1.  Consecutive indices (2k, 2k+1) form a pair
drawn from one complex FFT whose Gaussian stream is keyed by (master_seed,
GAUSSIAN_STREAM, k); bridge uniforms for path m come from (master_seed,
UNIFORM_STREAM, m).  Neither key involves the Hurst index, and the map from
noise to path is linear, so one job covers several H values: each pair's
normals and each path's uniforms are drawn once and serve every H, and a
pair's normals are transformed and summed at every H as soon as they are
drawn.  Every per-path output depends only on the master seed, the path
index and H, so results are identical for any worker count and any chunk
size; chunking exists purely to bound memory and to let chunks run on
separate processes.
A run returns one array per output, indexed [H, path]: row k of every
array belongs to hurst[k], and column m of every row to path m.
"""

from __future__ import annotations

import ctypes
import math
import os
import queue
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .fgn import _is_int, _pair_paths, circulant_spectrum
from .passage import _bridge_hit_times_batch, _grid_times, _plain_hit_index
from .rng import GAUSSIAN_STREAM, UNIFORM_STREAM, substream
from .sde import CHECK_COLUMNS, TAIL_PIECE, affine_euler, reduced_model

__all__ = ["MemoryBudgetError", "RULES", "SimulationJob", "run_simulation"]

DEFAULT_CHUNK_PAIRS = 128
# hit-time rules, by the key of their times in run_simulation's output
RULES = ("simple", "bridge")

# The default pairs per chunk with no Euler loop, and the pairs per
# _fill_paths call of a chunk that fills its pairs on one thread.
# A chunk with no Euler loop is filled at every H and then scanned for each
# H in turn, so its buffers stay small enough to be reused from cache.
# Drifted models default to DEFAULT_CHUNK_PAIRS: their Euler step is a
# Python loop over grid steps, vectorised across rows, and costs less per
# row on more rows.  On one CPU, medians of paired trials, a 4-pair fill
# took 7% and 15% less time than four one-pair fills at 2^15 steps with
# 1 and 3 H, 5% and 2% less at 2^16, and 0.5% more and 14% less at 2^17;
# it holds 192 (N + 1) bytes more.
BLOCK_PAIRS = 4
# Grid steps from which a serial run shares its work with a helper thread
# (see _draws_ahead).  Below them a pair's draw is mostly Python (its
# `substream` alone takes ~25 us), and the two threads convoy on the GIL.
# run_simulation alone at 2^22 path steps (2 vCPUs, medians of 9
# alternating runs) took, shared over inline, 0.69-0.73x, 0.70-0.73x and
# 0.84-0.85x at N = 2^11 with one pure H, 2 H with both rules and one
# `ou:1` H; 0.56x, 0.73x and 0.75x at 2^12; 0.61x, 1.14x and 1.02x at 2^10.
FEED_STEPS = 2**11


@dataclass(frozen=True)
class SimulationJob:
    """Complete, picklable description of one Monte Carlo experiment.

    `hurst` lists the H values to simulate; all of them run on the same
    noise, and row k of every output array belongs to hurst[k].  `rules`
    names the hit-time rules to run, drawn from RULES, each at most once.
    Workers reconstruct everything (spectra, model coefficients) from this
    record, so a chunk can be computed anywhere and the result depends only
    on the job and the chunk's pair range.
    """

    hurst: tuple[float, ...]
    horizon: float
    steps: int
    samples: int
    master_seed: int
    threshold: float = 1.0
    x0: float = 0.0
    drift: str = "zero"
    diffusion: str = "one"
    rules: tuple[str, ...] = ("simple",)
    marginal_indices: tuple[int, ...] = ()
    extreme_indices: tuple[int, ...] = ()


@lru_cache(maxsize=1)
def _noise_scales(hurst: tuple[float, ...], horizon: float, steps: int) -> tuple[np.ndarray, ...]:
    """A job's table of sqrt(spectrum / 2N), one per H: the factors that turn white noise into FFT input."""
    spectra = (circulant_spectrum(h, horizon, steps) for h in hurst)
    return tuple(np.sqrt(spectrum / len(spectrum)) for spectrum in spectra)


def _empty_outputs(job: SimulationJob, n: int) -> dict[str, np.ndarray]:
    """Uninitialised output arrays of `n` paths for every H, keyed as run_simulation returns them."""
    shape = (len(job.hurst), n)
    out = {rule: np.empty(shape) for rule in job.rules}
    if job.marginal_indices:
        out["marginals"] = np.empty((*shape, len(job.marginal_indices)))
    if job.extreme_indices:
        out["sup_values"] = np.empty((*shape, len(job.extreme_indices)))
        out["argmax_times"] = np.empty((*shape, len(job.extreme_indices)))
    return out


# glibc mallopt parameters, and the values _raise_malloc_thresholds sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@cache
def _raise_malloc_thresholds() -> bool:
    """Serve allocations below 32 MB from the heap and keep 64 MB of freed heap.

    numpy's FFT allocates and frees a work buffer of ~512 KB (at N = 2^14)
    on every call.  Under glibc's default thresholds its pages go back to
    the system on every free, so each transform faults them in again,
    until some large enough free happens to raise the thresholds; the
    spectra that a run computes before its first chunk do the same.  Runs
    once per process, when it first starts a run or a chunk, not at
    import; a no-op (returns False) where the C library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    return True


def _running_extremes(paths: np.ndarray, indices) -> tuple[np.ndarray, np.ndarray]:
    """Max and first argmax of every row over [0, i] for each i in `indices`.

    Each argmax reads a contiguous 1-d row slice, which numpy scans in place,
    and returns the earliest index on a tie.
    """
    where = np.array([[row[: i + 1].argmax() for i in indices] for row in paths], dtype=np.intp)
    return np.take_along_axis(paths, where, axis=1), where


class MemoryBudgetError(ValueError):
    """A job whose buffers cannot fit in the machine's physical memory."""


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_fits_in_memory(need: int, advice: str) -> None:
    """Raise MemoryBudgetError, ending with `advice`, if `need` bytes exceed physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise MemoryBudgetError(
            f"the run needs ~{need / 2**30:.3g} GiB but the machine has {have / 2**30:.3g} GiB; {advice}"
        )


def _brownian_level(job: SimulationJob) -> float | None:
    """The level of `reduced_model` when its drift is zero, so the paths are fBm run to it; else None."""
    a, c_reduced, _, level = reduced_model(job.drift, job.diffusion, job.x0, job.threshold)
    return level if a == 0.0 and c_reduced == 0.0 else None


def _model_chunk_pairs(job: SimulationJob) -> int:
    """The model's pairs per chunk: BLOCK_PAIRS without the Euler loop, cut from 6 H on, and with it DEFAULT_CHUNK_PAIRS, cut from 3 H on.

    A chunk holds 16N of path rows per pair and H.  Without the Euler loop
    the cut keeps a chunk's rows within the 320N of a BLOCK_PAIRS chunk at
    5 H, down to one pair from 11 H on.  With it, the cut keeps them within
    48N per pair of a DEFAULT_CHUNK_PAIRS chunk.
    """
    nh = len(job.hurst)
    if _brownian_level(job) is not None:
        return max(1, min(BLOCK_PAIRS, 5 * BLOCK_PAIRS // nh))
    return max(1, min(DEFAULT_CHUNK_PAIRS, 3 * DEFAULT_CHUNK_PAIRS // nh))


def _usable_cpus() -> int:
    """CPUs this process may run on; an affinity mask (taskset, a cpuset) may allow fewer than the machine has."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _draws_ahead(job: SimulationJob, processes: int) -> bool:
    """True when a run on `processes` processes shares its work with one helper thread: serial, with a spare CPU."""
    return processes == 1 and job.steps >= FEED_STEPS and _usable_cpus() > 1


def _memory_estimate(job: SimulationJob, chunk: int, processes: int) -> int:
    """Bytes a run of `job` in chunks of `chunk` pairs holds at its peak, computed before anything is allocated.

    An upper bound on the traced peak, with N = steps and nH H values.
    Every process holds 64 kB of small objects (a chunk's plain hit
    indices, 16 bytes per pair and H, among them), the job's spectrum
    table (16N bytes per H) and one chunk: 16N of path rows per pair and
    H, and the larger of what its two phases add.  The fill adds 64N per
    pair of a _fill_paths call (its block of normals and its transform
    buffer) for the BLOCK_PAIRS pairs of a call (fewer in a smaller
    chunk); a fill holds no other temporary, since the normals are drawn
    into the block and scaled into the buffer in place.  The scans add
    2N per pair of scan or finiteness mask; with the bridge rule 16N per
    pair of log-uniforms, one array per path, 2 kB per pair for their
    headers and the generator of each draw, and the 32N of one row's
    bridge scan.  The Euler loop holds nothing else sized by the grid: 4
    bytes per pair and column of a CHECK_COLUMNS batch for its check of
    which rows have reached the level, and 66 bytes per entry of its
    tail's TAIL_PIECE-column pieces of Python floats (65.1 B by
    `tracemalloc`).  A run that _draws_ahead holds two chunks at once
    without the Euler loop, one per thread, and with it two one-pair
    fills.  The calling process holds every array of `_empty_outputs`
    twice while it merges the chunks, and 1 kB of array headers per chunk.
    Raises ValueError for an unknown model.
    """
    pairs = (job.samples + 1) // 2
    pc = min(chunk, pairs)  # pairs in the largest chunk
    n = job.steps + 1
    nh = len(job.hurst)
    bridge = "bridge" in job.rules
    looped = _brownian_level(job) is None
    ahead = _draws_ahead(job, processes)
    fill = min(2 if ahead and looped else BLOCK_PAIRS, pc) * 64 * n
    euler = 4 * min(CHECK_COLUMNS + 1, n) * pc + 66 * TAIL_PIECE if looped else 0
    scans = 2 * n * pc + euler + bridge * (pc * (16 * n + 2048) + 32 * n)
    per_chunk = 16 * nh * n * pc + max(fill, scans)
    per_process = (64 << 10) + 16 * nh * n + (2 if ahead and not looped else 1) * per_chunk
    per_path = sum(a.itemsize * math.prod(a.shape[2:]) for a in _empty_outputs(job, 0).values())
    results = 2 * nh * job.samples * per_path + 1024 * math.ceil(pairs / chunk)
    return processes * per_process + results


def _fill_paths(master_seed: int, scales: tuple[np.ndarray, ...], first_pair: int, paths: np.ndarray) -> None:
    """Fill the (H, 2 pairs, N + 1) rows `paths` by _pair_paths with the pairs from `first_pair` on, each from its Gaussian stream."""
    pairs = range(first_pair, first_pair + paths.shape[1] // 2)
    _pair_paths((substream(master_seed, GAUSSIAN_STREAM, pair) for pair in pairs), scales, paths)


def _shared(helper: ThreadPoolExecutor, work, count: int) -> list:
    """[work(k) for k in range(count)], computed by this thread and the one thread of `helper`, each taking the next k from one queue.

    An exception on either thread empties the queue, so the other thread
    stops after its current k.  The helper's share is done before this
    returns or raises, and the exception is raised (this thread's, if both
    raise).
    """
    todo = queue.SimpleQueue()
    for k in range(count):
        todo.put(k)

    def drain() -> dict:
        done = {}
        try:
            with suppress(queue.Empty):
                while True:
                    k = todo.get_nowait()
                    done[k] = work(k)
            return done
        finally:
            with suppress(queue.Empty):
                while True:
                    todo.get_nowait()

    theirs = helper.submit(drain)
    try:
        done = drain()
    finally:
        wait([theirs])
    done.update(theirs.result())
    return [done[k] for k in range(count)]


def _chunk_compute(
    job: SimulationJob, first_pair: int, pairs: int, helper: ThreadPoolExecutor | None = None
) -> dict[str, np.ndarray]:
    """Per-path outputs of the chunk of `pairs` path pairs from `first_pair` on, indexed [H, path in chunk].

    Paths run in the coordinates y = (x - x0) / s of `reduced_model`;
    marginals and suprema map back by x0 + s y.  The chunk is processed as
    one unit, and opens each path's uniform stream once.  It first fills
    its rows of every H, (H, 2 pairs, N + 1), by _fill_paths: BLOCK_PAIRS
    pairs per call, or, given a `helper`, one pair per call, by this
    thread and the helper's thread through _shared.  Then, for each H, it
    runs the Euler step on that H's valid rows unless _brownian_level
    gives a level, and the plain scan.  The Euler step takes each row only through the
    later of its plain hit and the last column that a marginal or extreme
    reads; the states past that are not read, and hold the noise prefix
    sums or states stepped on with the chunk.  With the bridge rule each
    path then draws, in one call, the uniforms its scans read: one per
    step before its latest plain hit over the H values, all N when
    censored, as logs.  Last, for each H, it runs the bridge scan and the
    reductions.

    Its buffers are the ones _memory_estimate counts; the Euler step
    overwrites the path rows in place.
    """
    _raise_malloc_thresholds()
    steps = job.steps
    step = job.horizon / steps
    first_path = 2 * first_pair
    n_valid = min(2 * pairs, job.samples - first_path)
    a, c_reduced, s, thr = reduced_model(job.drift, job.diffusion, job.x0, job.threshold)
    looped = _brownian_level(job) is None

    out = _empty_outputs(job, n_valid)
    bridge = "bridge" in job.rules
    values = np.empty((len(job.hurst), 2 * pairs, steps + 1))
    values[:, :, 0] = 0.0
    fill = partial(_fill_paths, job.master_seed, _noise_scales(tuple(job.hurst), job.horizon, steps))
    if helper is not None:
        _shared(helper, lambda p: fill(first_pair + p, values[:, 2 * p : 2 * p + 2]), pairs)
    else:
        for p in range(0, pairs, BLOCK_PAIRS):
            fill(first_pair + p, values[:, 2 * p : 2 * min(p + BLOCK_PAIRS, pairs)])
    columns = list(job.marginal_indices)
    # the Euler loop steps each row through its plain hit and the last column any output reads
    level = thr if job.rules else -math.inf
    read_to = max((*job.marginal_indices, *job.extreme_indices), default=0)
    paths = values[:, :n_valid]
    plain = []
    for rows in paths:
        if looped:
            affine_euler(rows, a, c_reduced, step, level, read_to)
        if job.rules:
            plain.append(_plain_hit_index(rows, thr))
    if bridge:
        # a row's scans read one uniform per step before its latest plain hit, all N when censored
        need = np.maximum(np.max(plain, axis=0) - 1, 0).tolist()
        log_u = [substream(job.master_seed, UNIFORM_STREAM, first_path + j).random(n) for j, n in enumerate(need)]
        with np.errstate(divide="ignore"):
            for u in log_u:
                np.log(u, out=u)

    for k, h in enumerate(job.hurst):
        rows = paths[k]
        if "simple" in out:
            out["simple"][k] = _grid_times(plain[k], steps, step)
        if bridge:
            step_var = step ** (2.0 * h)
            out["bridge"][k] = _bridge_hit_times_batch(rows, thr, step, step_var, log_u, plain[k])
        if job.marginal_indices:
            out["marginals"][k] = job.x0 + s * rows[:, columns]
        if job.extreme_indices:
            # x0 + s y is strictly increasing, so suprema and argmax
            # locations carry over to the original coordinates
            sup, where = _running_extremes(rows, job.extreme_indices)
            out["sup_values"][k] = job.x0 + s * sup
            out["argmax_times"][k] = where * step
    return out


def run_simulation(job: SimulationJob, workers: int = 1) -> dict[str, np.ndarray]:
    """Execute a job, optionally across processes; one array per output, indexed [H, path].

    The keys are the rule names of job.rules, whose arrays hold hit times
    (+inf where a path is censored), then "marginals" when the job has
    marginal indices and "sup_values" and "argmax_times" when it has
    extreme indices; those three carry a last axis with one entry per
    index.  Every array has shape (len(hurst), samples, ...).
    All H values share one pass over the chunks and at most one process
    pool, of min(workers, chunks, CPUs this process may run on) processes.
    The chunks start from the model's chunk, halved until _memory_estimate
    fits physical memory at min(workers, CPUs) processes, and are merged
    in path order; since every per-path output is a pure function of
    (job, H, path index), the assembled arrays are byte-identical for any
    `workers` and chunk size.  A run that _draws_ahead starts one helper
    thread and shares its work with it through _shared: whole chunks
    without the Euler loop, and with it each chunk's pairs, one per call,
    before this thread steps and scans the chunk.  No thread or process
    outlives the run, whether it returns or raises.  A run that does not fit at one pair raises MemoryBudgetError; a master
    seed outside the integers in [0, 2^64), a non-integer count, step
    count or grid index, a non-finite x0 or threshold, or a `workers` that
    is not an integer of at least 1 raises ValueError.  Both are raised
    before anything is allocated.
    """
    if not (_is_int(job.master_seed) and 0 <= job.master_seed < 2**64):
        raise ValueError(f"master_seed must be an integer in [0, 2**64), got {job.master_seed!r}")
    if not _is_int(job.steps):
        raise ValueError(f"steps must be an integer, got {job.steps!r}")
    if not (_is_int(job.samples) and job.samples >= 1):
        raise ValueError(f"samples must be an integer of at least 1, got {job.samples!r}")
    if not (math.isfinite(job.x0) and math.isfinite(job.threshold)):
        raise ValueError(f"x0 and threshold must be finite, got x0={job.x0}, threshold={job.threshold}")
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    if not job.hurst:
        raise ValueError("need at least one Hurst value")
    if not set(job.rules) <= set(RULES) or len(set(job.rules)) < len(job.rules):
        raise ValueError(f"rules must be distinct names from {RULES}, got {job.rules}")
    bad = [i for i in (*job.marginal_indices, *job.extreme_indices) if not (_is_int(i) and 0 <= i <= job.steps)]
    if bad:
        raise ValueError(f"grid indices must be integers in [0, {job.steps}], got {bad}")
    # validate the model; its chunk halves until the run fits at the most processes it may start
    chunk = _model_chunk_pairs(job)
    workers = min(int(workers), _usable_cpus())
    have = _physical_memory()
    if have is not None:
        while chunk > 1 and _memory_estimate(job, chunk, workers) > have:
            chunk //= 2
    pairs = (job.samples + 1) // 2
    firsts = range(0, pairs, chunk)
    workers = min(workers, len(firsts))
    _check_fits_in_memory(_memory_estimate(job, chunk, workers), "use fewer steps, samples or workers")
    _raise_malloc_thresholds()
    # build the job's spectrum table once, validating every spectrum; forked workers inherit it
    _noise_scales(tuple(job.hurst), job.horizon, job.steps)
    sizes = [min(chunk, pairs - first) for first in firsts]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_compute, [job] * len(firsts), firsts, sizes))
    elif not _draws_ahead(job, workers):
        chunks = [_chunk_compute(job, first, size) for first, size in zip(firsts, sizes)]
    else:
        with ThreadPoolExecutor(1) as helper:
            if _brownian_level(job) is not None:
                # chunks without the Euler loop are cheap to scan, so the threads share whole chunks
                chunks = _shared(helper, lambda k: _chunk_compute(job, firsts[k], sizes[k]), len(firsts))
            else:
                chunks = [_chunk_compute(job, first, size, helper) for first, size in zip(firsts, sizes)]
    return {key: np.concatenate([c[key] for c in chunks], axis=1) for key in chunks[0]}
