"""Deterministic chunked Monte Carlo driver.

Paths are indexed 0..samples-1.  Consecutive indices (2k, 2k+1) form a pair
drawn from one complex FFT whose Gaussian stream is keyed by (master_seed,
GAUSSIAN_STREAM, k); bridge uniforms for path m come from (master_seed,
UNIFORM_STREAM, m).  Neither key involves the Hurst index, and the map from
noise to path is linear, so one job covers several H values: each pair's
normals and each path's uniforms are drawn once and serve every H.  Every
per-path output depends only on the master seed, the path index and H, so
results are identical for any worker count and any chunk size; chunking
exists purely to bound memory and to let chunks run on separate processes.
A run returns one array per output, indexed [H, path]: row k of every
array belongs to hurst[k], and column m of every row to path m.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .fgn import _complex_noise, _pair_fft, circulant_spectrum
from .passage import _bridge_hit_times_batch, _grid_times, _plain_hit_index
from .rng import GAUSSIAN_STREAM, UNIFORM_STREAM, substream
from .sde import CHECK_COLUMNS, TAIL_PIECE, affine_coefficients, affine_euler

__all__ = ["MemoryBudgetError", "RULES", "SimulationJob", "run_simulation"]

DEFAULT_CHUNK_PAIRS = 128
# hit-time rules, by the key of their times in run_simulation's output
RULES = ("simple", "bridge")

# Pairs per block of a chunk with no Euler loop, and pairs per FFT call.  A
# block's noise is drawn once and then transformed, summed and scanned for
# each H in turn, so its buffers stay small enough to be reused from cache.
# Drifted models take the whole chunk as one block: their Euler step is a
# Python loop over grid steps, vectorised across rows, and costs less per
# row on more rows; they transform the block BLOCK_PAIRS pairs at a time.
BLOCK_PAIRS = 4


@dataclass(frozen=True)
class SimulationJob:
    """Complete, picklable description of one Monte Carlo experiment.

    `hurst` lists the H values to simulate; all of them run on the same
    noise, and row k of every output array belongs to hurst[k].  `rules`
    names the hit-time rules to run, drawn from RULES, each at most once.
    Workers reconstruct everything (spectra, model coefficients) from this
    record, so a chunk can be computed anywhere and the result depends only
    on the job and the chunk index.
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
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS

    @property
    def is_pure(self) -> bool:
        """True when the path is raw fBm shifted by x0: zero drift and unit diffusion, however spelled."""
        return affine_coefficients(self.drift, self.diffusion) == (0.0, 0.0, 1.0)


@lru_cache(maxsize=16)
def _noise_scale(hurst: float, horizon: float, steps: int) -> np.ndarray:
    """sqrt(spectrum / 2N): the factor that turns white noise into the pair's FFT input."""
    spectrum = circulant_spectrum(hurst, horizon, steps)
    return np.sqrt(spectrum / len(spectrum))


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


def _row_log_uniforms(generators, drawn: list[int], buffer: np.ndarray, r: int, n: int) -> np.ndarray:
    """Row r's first n log-uniforms, drawn from its own generator on first need.

    drawn[r] counts the entries of buffer row r drawn so far.  Each draw
    continues the row's stream, so the entries are those of one random(n) call.
    """
    lo = drawn[r]
    if lo < n:
        with np.errstate(divide="ignore"):
            np.log(generators[r].random(n - lo), out=buffer[r, lo:n])
        drawn[r] = n
    return buffer[r, :n]


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


def _reduced_drift(job: SimulationJob) -> tuple[float, float, float]:
    """(a, c~, s): the job's model in y = (x - x0) / s has drift a y + c~ and unit diffusion."""
    a, c, s = affine_coefficients(job.drift, job.diffusion)
    return a, (a * job.x0 + c) / s, s


def _block_layout(job: SimulationJob, pairs: int) -> tuple[bool, int]:
    """(looped, block) for a chunk of `pairs` pairs.

    `looped` says whether the reduced drift is not zero, so the Euler loop
    runs; then a block is the whole chunk, and otherwise BLOCK_PAIRS pairs.
    Either way one FFT call transforms at most BLOCK_PAIRS pairs, so the
    transform buffer holds min(BLOCK_PAIRS, block) rows.  Raises ValueError
    for an unknown model.
    """
    a, c_reduced, _ = _reduced_drift(job)
    looped = a != 0.0 or c_reduced != 0.0
    return looped, pairs if looped else min(BLOCK_PAIRS, pairs)


def _memory_estimate(job: SimulationJob, processes: int) -> int:
    """Bytes a run of `job` holds at its peak, computed before anything is allocated.

    An upper bound on the traced peak, with N = steps.  Every process
    holds 64 kB of small objects, the cached spectra (16N bytes per H), one
    transform buffer of min(BLOCK_PAIRS, block) rows of 32N, one block and
    the largest temporary of a block step.  Per pair, a block holds 16N of
    path rows and 2N of scan or finiteness mask; with the bridge rule 16N
    of log-uniforms and two uniform generators of ~1 kB; with several H
    values 32N of stashed noise.  A single-H block draws its noise into
    the transform buffer's rows.
    The largest temporary is 32N: the 16N of one noise draw, the FFT's
    ufunc buffer or one row's bridge scan.  The Euler loop holds nothing
    else sized by the grid: 4 bytes per pair and column of a CHECK_COLUMNS
    batch for its check of which rows have reached the level, and 66 bytes
    per entry of its tail's TAIL_PIECE-column pieces of Python floats
    (65.1 B by `tracemalloc`).  The calling process holds every result
    array twice while it merges the chunks, and 1 kB of array headers per
    chunk and H.  Raises ValueError for an unknown model.
    """
    pairs = (job.samples + 1) // 2
    looped, block = _block_layout(job, min(job.chunk_pairs, pairs))
    n = job.steps + 1
    bridge = "bridge" in job.rules
    per_pair = (16 + 2 + 16 * bridge + 32 * (len(job.hurst) > 1)) * n
    per_pair += 2048 * bridge
    transform = min(BLOCK_PAIRS, block) * 32 * n
    euler = 4 * min(CHECK_COLUMNS + 1, n) * block + 66 * TAIL_PIECE if looped else 0
    per_process = (64 << 10) + (16 * len(job.hurst) + 32) * n + euler + transform + block * per_pair
    columns = len(job.rules) + len(job.marginal_indices) + 2 * len(job.extreme_indices)
    results = 2 * 8 * job.samples * columns + 1024 * math.ceil(pairs / job.chunk_pairs)
    return processes * per_process + len(job.hurst) * results


def _chunk_compute(job: SimulationJob, chunk_index: int) -> dict[str, np.ndarray]:
    """Per-path outputs of one chunk of consecutive path pairs, indexed [H, path in chunk].

    Paths run in the reduced coordinates y = (x - x0) / s of the model
    dX = (a X + c) dt + s dB: drift a y + (a x0 + c) / s, unit diffusion,
    level (threshold - x0) / s; marginals and suprema map back by x0 + s y.
    The chunk runs in blocks of pairs, and a block opens each path's
    uniform stream once.  For each H in turn, and for each BLOCK_PAIRS
    pairs of the block, it scales the pairs' noise by that H's
    sqrt(spectrum / 2N) into the rows of one reused buffer of up to
    BLOCK_PAIRS rows of 2N, and transforms them in one FFT call; then it
    prefix-sums their real parts into the even and their imaginary parts
    into the odd rows of one reused path buffer, one call per part, runs the
    Euler step on the block's valid rows if the reduced drift is not zero,
    and runs the scans and reductions.  The Euler step takes each row only
    through the later of its plain hit and the last column that a marginal
    or extreme reads; the states past that are not read, and hold the noise
    prefix sums or states stepped on with the block.  A pair's normals are
    drawn when the first H reaches it: into its row of the transform buffer
    when the job has one H, and into a stash row that the later H values
    read again when it has several.  A path's bridge scan stops at its plain
    hit and asks _row_log_uniforms for the uniforms it reads, which draws
    them, and takes their logs, only as far as some H has asked so far.

    Memory per block, with N = steps: 16N bytes of path rows per pair, plus
    16N of log-uniforms per pair with the bridge rule, filled only as far
    as the scans read, plus 32N of stashed complex noise per pair with
    several H values, plus the transform buffer's 32N per row.  With a
    zero reduced drift there is no Euler loop and a block holds
    BLOCK_PAIRS pairs, one transform buffer row each.  Otherwise the block
    is the whole chunk, 16N bytes per pair with one H and 48N with several
    (16N more with the bridge rule), next to a transform buffer of up to
    BLOCK_PAIRS rows; the Euler step overwrites the path rows in place,
    one bounded batch of columns at a time, and its row check and scalar
    tail hold pieces of fixed size (see _memory_estimate).
    """
    _raise_malloc_thresholds()
    steps = job.steps
    step = job.horizon / steps
    m = 2 * steps
    pairs_total = (job.samples + 1) // 2
    p0 = chunk_index * job.chunk_pairs
    pc = min(job.chunk_pairs, pairs_total - p0)
    first_path = 2 * p0
    n_valid = min(2 * pc, job.samples - first_path)
    scales = [_noise_scale(h, job.horizon, steps) for h in job.hurst]
    a, c_reduced, s = _reduced_drift(job)
    thr = (job.threshold - job.x0) / s
    looped, block = _block_layout(job, pc)

    out = _empty_outputs(job, n_valid)
    bridge = "bridge" in job.rules
    transformed = np.empty((min(BLOCK_PAIRS, block), m), dtype=complex)
    stash = np.empty((block, m), dtype=complex) if len(job.hurst) > 1 else None
    values = np.empty((2 * block, steps + 1))
    values[:, 0] = 0.0
    uniforms = np.empty((2 * block, steps)) if bridge else None
    columns = list(job.marginal_indices)
    # the Euler loop steps each row through its plain hit and the last column any output reads
    level = thr if job.rules else -math.inf
    read_to = max((*job.marginal_indices, *job.extreme_indices), default=0)

    for b0 in range(0, pc, block):
        nb = min(block, pc - b0)
        r0 = 2 * b0
        rows = slice(r0, min(r0 + 2 * nb, n_valid))
        n_rows = rows.stop - r0
        if bridge:
            generators = [substream(job.master_seed, UNIFORM_STREAM, first_path + r0 + j) for j in range(n_rows)]
            log_uniforms = partial(_row_log_uniforms, generators, [0] * n_rows, uniforms)
        block_values = values[: 2 * nb]
        for k, (h, scale) in enumerate(zip(job.hurst, scales)):
            for g0 in range(0, nb, BLOCK_PAIRS):
                g = min(BLOCK_PAIRS, nb - g0)
                noise = transformed[:g] if stash is None else stash[g0 : g0 + g]
                if not k:
                    for i in range(g):
                        rng = substream(job.master_seed, GAUSSIAN_STREAM, p0 + b0 + g0 + i)
                        _complex_noise(rng, m, out=noise[i])
                y = _pair_fft(scale, noise, out=transformed[:g])
                group = block_values[2 * g0 : 2 * (g0 + g), 1:]
                np.add.accumulate(y.real[:, :steps], axis=1, out=group[0::2])
                np.add.accumulate(y.imag[:, :steps], axis=1, out=group[1::2])
            paths = block_values[:n_rows]
            if looped:
                affine_euler(paths, a, c_reduced, step, level, read_to)

            if job.rules:
                plain = _plain_hit_index(paths, thr)
            if "simple" in out:
                out["simple"][k, rows] = _grid_times(plain, steps, step)
            if bridge:
                step_var = step ** (2.0 * h)
                out["bridge"][k, rows] = _bridge_hit_times_batch(paths, thr, step, step_var, log_uniforms, plain)
            if job.marginal_indices:
                out["marginals"][k, rows] = job.x0 + s * paths[:, columns]
            if job.extreme_indices:
                # x0 + s y is strictly increasing, so suprema and argmax
                # locations carry over to the original coordinates
                sup, where = _running_extremes(paths, job.extreme_indices)
                out["sup_values"][k, rows] = job.x0 + s * sup
                out["argmax_times"][k, rows] = where * step
    return out


def _is_int(value) -> bool:
    """True for a Python or numpy integer, and False for a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def run_simulation(job: SimulationJob, workers: int = 1) -> dict[str, np.ndarray]:
    """Execute a job, optionally across processes; one array per output, indexed [H, path].

    The keys are the rule names of job.rules, whose arrays hold hit times
    (+inf where a path is censored), then "marginals" when the job has
    marginal indices and "sup_values" and "argmax_times" when it has
    extreme indices; those three carry a last axis with one entry per
    index.  Every array has shape (len(hurst), samples, ...).
    All H values share one pass over the chunks and at most one process
    pool, of min(workers, chunks, cpu_count) processes.  Chunks are merged
    in chunk-index order; since every per-path output is a pure function
    of (job, H, path index), the assembled arrays are byte-identical for
    any `workers` and `chunk_pairs`.  A job with a master seed outside the
    integers in [0, 2^64), a non-integer count, step count or grid index,
    or a non-finite x0 or threshold, raises ValueError before anything is
    allocated.
    """
    if not (_is_int(job.master_seed) and 0 <= job.master_seed < 2**64):
        raise ValueError(f"master_seed must be an integer in [0, 2**64), got {job.master_seed!r}")
    if not _is_int(job.steps):
        raise ValueError(f"steps must be an integer, got {job.steps!r}")
    if not (_is_int(job.samples) and job.samples >= 1):
        raise ValueError(f"samples must be an integer of at least 1, got {job.samples!r}")
    if not (_is_int(job.chunk_pairs) and job.chunk_pairs >= 1):
        raise ValueError(f"chunk_pairs must be an integer of at least 1, got {job.chunk_pairs!r}")
    if not (math.isfinite(job.x0) and math.isfinite(job.threshold)):
        raise ValueError(f"x0 and threshold must be finite, got x0={job.x0}, threshold={job.threshold}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if not job.hurst:
        raise ValueError("need at least one Hurst value")
    if not set(job.rules) <= set(RULES) or len(set(job.rules)) < len(job.rules):
        raise ValueError(f"rules must be distinct names from {RULES}, got {job.rules}")
    bad = [i for i in (*job.marginal_indices, *job.extreme_indices) if not (_is_int(i) and 0 <= i <= job.steps)]
    if bad:
        raise ValueError(f"grid indices must be integers in [0, {job.steps}], got {bad}")
    pairs_total = (job.samples + 1) // 2
    n_chunks = math.ceil(pairs_total / job.chunk_pairs)
    workers = min(workers, n_chunks, os.cpu_count() or 1)
    # validate the model and bound the memory before allocating anything
    _check_fits_in_memory(_memory_estimate(job, workers), "use fewer steps, samples, workers or chunk pairs")
    _raise_malloc_thresholds()
    # validate the spectra up front; forked workers inherit the cached spectra
    for h in job.hurst:
        _noise_scale(h, job.horizon, job.steps)
    if workers == 1:
        chunks = [_chunk_compute(job, i) for i in range(n_chunks)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_compute, [job] * n_chunks, range(n_chunks)))
    return {key: np.concatenate([c[key] for c in chunks], axis=1) for key in chunks[0]}
