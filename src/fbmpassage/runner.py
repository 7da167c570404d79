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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .fgn import Hurst, TimeGrid, _complex_noise, _pair_fft, circulant_spectrum
from .passage import _bridge_hit_times_batch, _simple_hit_times_batch
from .rng import GAUSSIAN_STREAM, UNIFORM_STREAM, substream
from .sde import affine_coefficients, affine_euler

__all__ = ["SimulationJob", "SimulationResult", "run_simulation", "passage_times", "marginal_values", "path_extremes"]

DEFAULT_CHUNK_PAIRS = 128

# Pairs per block of a chunk with no Euler loop.  A block's noise is drawn
# once and then transformed, summed and scanned for each H in turn, so its
# buffers stay small enough to be reused from cache.  Drifted models take the
# whole chunk as one block: their Euler step is a Python loop over grid
# steps, vectorised across rows, and costs less per row on more rows.
BLOCK_PAIRS = 8


@dataclass(frozen=True)
class SimulationJob:
    """Complete, picklable description of one Monte Carlo experiment.

    `hurst` lists the H values to simulate; all of them run on the same
    noise, and run_simulation returns one result per entry, in order.
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
    want_simple: bool = True
    want_bridge: bool = False
    marginal_indices: tuple[int, ...] = ()
    extreme_indices: tuple[int, ...] = ()
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS

    @property
    def is_pure(self) -> bool:
        """True when the path is raw fBm shifted by x0 (no drift, unit diffusion)."""
        return self.drift == "zero" and self.diffusion == "one"


@dataclass(eq=False)
class SimulationResult:
    """Per-path outputs of one H value, assembled in path-index order."""

    tau_simple: np.ndarray | None = None
    tau_bridge: np.ndarray | None = None
    marginals: np.ndarray | None = None
    sup_values: np.ndarray | None = None
    argmax_times: np.ndarray | None = None

    def hit_times(self) -> dict[str, np.ndarray]:
        """Hit-time arrays (+inf censored) keyed by estimator name."""
        out = {}
        if self.tau_simple is not None:
            out["simple"] = self.tau_simple
        if self.tau_bridge is not None:
            out["bridge"] = self.tau_bridge
        return out


@lru_cache(maxsize=16)
def _noise_scale(hurst: float, horizon: float, steps: int) -> np.ndarray:
    """sqrt(spectrum / 2N): the factor that turns white noise into the pair's FFT input."""
    spectrum = circulant_spectrum(Hurst(hurst), TimeGrid(horizon, steps))
    return np.sqrt(spectrum / len(spectrum))


def _empty_result(job: SimulationJob, n: int) -> SimulationResult:
    k = len(job.extreme_indices)
    return SimulationResult(
        tau_simple=np.empty(n) if job.want_simple else None,
        tau_bridge=np.empty(n) if job.want_bridge else None,
        marginals=np.empty((n, len(job.marginal_indices))) if job.marginal_indices else None,
        sup_values=np.empty((n, k)) if k else None,
        argmax_times=np.empty((n, k)) if k else None,
    )


def _chunk_compute(job: SimulationJob, chunk_index: int) -> list[SimulationResult]:
    """Per-path outputs of one chunk of consecutive path pairs, one result per H.

    Paths run in the reduced coordinates y = (x - x0) / s of the model
    dX = (a X + c) dt + s dB: drift a y + (a x0 + c) / s, unit diffusion,
    level (threshold - x0) / s; marginals and suprema map back by x0 + s y.
    The chunk runs in blocks of pairs.  A block draws each pair's normals
    and each path's bridge uniforms once.  Then, for each H in turn, it
    scales the noise by that H's sqrt(spectrum / 2N), transforms each pair,
    writes the real and imaginary parts into one reused path buffer, takes
    the prefix sum in place, runs the Euler step if the reduced drift is
    not zero, and runs the scans and reductions.

    Memory per block, with N = steps: 32N bytes of complex noise and 16N of
    path rows per pair, plus 16N of uniforms per pair with the bridge rule.
    With a zero reduced drift there is no Euler loop and a block holds
    BLOCK_PAIRS pairs.  Otherwise the block is the whole chunk, 48N bytes
    per pair (64N with the bridge rule), for any number of H values; the
    Euler step overwrites the path rows in place.
    """
    steps = job.steps
    step = TimeGrid(job.horizon, steps).step
    m = 2 * steps
    pairs_total = (job.samples + 1) // 2
    p0 = chunk_index * job.chunk_pairs
    pc = min(job.chunk_pairs, pairs_total - p0)
    first_path = 2 * p0
    n_valid = min(2 * pc, job.samples - first_path)
    scales = [_noise_scale(h, job.horizon, steps) for h in job.hurst]
    a, c, s = affine_coefficients(job.drift, job.diffusion)
    c_reduced = (a * job.x0 + c) / s
    thr = (job.threshold - job.x0) / s
    looped = a != 0.0 or c_reduced != 0.0
    block = pc if looped else min(BLOCK_PAIRS, pc)

    results = [_empty_result(job, n_valid) for _ in job.hurst]
    noise = np.empty((block, m), dtype=complex)
    transformed = np.empty(m, dtype=complex)
    values = np.empty((2 * block, steps + 1))
    uniforms = np.empty((2 * block, steps)) if job.want_bridge else None
    columns = list(job.marginal_indices)

    for b0 in range(0, pc, block):
        nb = min(block, pc - b0)
        for i in range(nb):
            _complex_noise(substream(job.master_seed, GAUSSIAN_STREAM, p0 + b0 + i), m, out=noise[i])
        r0 = 2 * b0
        rows = slice(r0, min(r0 + 2 * nb, n_valid))
        n_rows = rows.stop - r0
        if uniforms is not None:
            for j in range(n_rows):
                uniforms[j] = substream(job.master_seed, UNIFORM_STREAM, first_path + r0 + j).random(steps)
        block_values = values[: 2 * nb]
        for h, scale, result in zip(job.hurst, scales, results):
            for i in range(nb):
                y = _pair_fft(scale, noise[i], out=transformed)
                block_values[2 * i, 1:] = y.real[:steps]
                block_values[2 * i + 1, 1:] = y.imag[:steps]
            block_values[:, 0] = 0.0
            np.cumsum(block_values[:, 1:], axis=1, out=block_values[:, 1:])
            if looped:
                affine_euler(block_values, a, c_reduced, step)
            paths = block_values[:n_rows]

            if result.tau_simple is not None:
                result.tau_simple[rows] = _simple_hit_times_batch(paths, thr, step)
            if result.tau_bridge is not None:
                step_var = step ** (2.0 * h)
                result.tau_bridge[rows] = _bridge_hit_times_batch(paths, thr, step, step_var, uniforms[:n_rows])
            if result.marginals is not None:
                result.marginals[rows] = job.x0 + s * paths[:, columns]
            # x0 + s y is strictly increasing, so suprema and argmax
            # locations carry over to the original coordinates
            for k, ri in enumerate(job.extreme_indices):
                segment = paths[:, : ri + 1]
                result.sup_values[rows, k] = job.x0 + s * segment.max(axis=1)
                result.argmax_times[rows, k] = segment.argmax(axis=1) * step
    return results


def _merge(parts: list[SimulationResult]) -> SimulationResult:
    merged = {}
    for f in fields(SimulationResult):
        arrays = [getattr(p, f.name) for p in parts]
        merged[f.name] = None if arrays[0] is None else np.concatenate(arrays, axis=0)
    return SimulationResult(**merged)


def run_simulation(job: SimulationJob, workers: int = 1) -> list[SimulationResult]:
    """Execute a job, optionally across processes; one result per H, in order.

    All H values share one pass over the chunks and at most one process
    pool, of min(workers, chunks, cpu_count) processes.  Chunks are merged
    in chunk-index order; since every per-path output is a pure function
    of (job, H, path index), the assembled arrays are byte-identical for
    any `workers` and `chunk_pairs`.
    """
    if job.samples < 1:
        raise ValueError(f"need at least one sample path, got {job.samples}")
    if job.chunk_pairs < 1:
        raise ValueError(f"chunk_pairs must be positive, got {job.chunk_pairs}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if not job.hurst:
        raise ValueError("need at least one Hurst value")
    bad = [i for i in (*job.marginal_indices, *job.extreme_indices) if not 0 <= i <= job.steps]
    if bad:
        raise ValueError(f"grid indices outside [0, {job.steps}]: {bad}")
    # validate the spectra and the model up front; forked workers inherit
    # the cached spectra
    for h in job.hurst:
        _noise_scale(h, job.horizon, job.steps)
    affine_coefficients(job.drift, job.diffusion)
    pairs_total = (job.samples + 1) // 2
    n_chunks = math.ceil(pairs_total / job.chunk_pairs)
    workers = min(workers, n_chunks, os.cpu_count() or 1)
    if workers == 1:
        chunks = [_chunk_compute(job, i) for i in range(n_chunks)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_compute, [job] * n_chunks, range(n_chunks)))
    return [_merge([c[k] for c in chunks]) for k in range(len(job.hurst))]


# ---------------------------------------------------------------------------
# single-H convenience wrappers
# ---------------------------------------------------------------------------

def passage_times(
    h: Hurst,
    grid: TimeGrid,
    samples: int,
    seed: int,
    threshold: float = 1.0,
    x0: float = 0.0,
    drift: str = "zero",
    diffusion: str = "one",
    estimators: tuple[str, ...] = ("simple",),
    workers: int = 1,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> dict[str, np.ndarray]:
    """Hit-time arrays (+inf censored) keyed by estimator name."""
    unknown = set(estimators) - {"simple", "bridge"}
    if unknown:
        raise ValueError(f"unknown estimator(s): {sorted(unknown)}")
    job = SimulationJob(
        hurst=(h.value,),
        horizon=grid.horizon,
        steps=grid.steps,
        samples=samples,
        master_seed=seed,
        threshold=threshold,
        x0=x0,
        drift=drift,
        diffusion=diffusion,
        want_simple="simple" in estimators,
        want_bridge="bridge" in estimators,
        chunk_pairs=chunk_pairs,
    )
    return run_simulation(job, workers=workers)[0].hit_times()


def marginal_values(
    h: Hurst,
    grid: TimeGrid,
    samples: int,
    seed: int,
    time_indices,
    workers: int = 1,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> np.ndarray:
    """Path values at the given grid indices, shape (samples, len(indices))."""
    job = SimulationJob(
        hurst=(h.value,),
        horizon=grid.horizon,
        steps=grid.steps,
        samples=samples,
        master_seed=seed,
        want_simple=False,
        marginal_indices=tuple(int(i) for i in time_indices),
        chunk_pairs=chunk_pairs,
    )
    return run_simulation(job, workers=workers)[0].marginals


def path_extremes(
    h: Hurst,
    grid: TimeGrid,
    samples: int,
    seed: int,
    time_indices,
    workers: int = 1,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> tuple[np.ndarray, np.ndarray]:
    """Suprema and first-argmax times over [0, index * step] per path."""
    job = SimulationJob(
        hurst=(h.value,),
        horizon=grid.horizon,
        steps=grid.steps,
        samples=samples,
        master_seed=seed,
        want_simple=False,
        extreme_indices=tuple(int(i) for i in time_indices),
        chunk_pairs=chunk_pairs,
    )
    (result,) = run_simulation(job, workers=workers)
    return result.sup_values, result.argmax_times
