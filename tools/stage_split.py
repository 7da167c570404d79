"""In-process stage timer for the runner's hot path.

    python3 tools/stage_split.py [--shape NAME] [--src DIR] [--steps N] [--samples M]

Wraps the stage entry points that `fbmpassage.runner` calls with
`time.perf_counter`, runs `run_simulation` serially on the three
benchmark shapes, and prints each stage's seconds and its share of the
runner's wall time.  "rest" is what no wrapper saw: the prefix sums,
chunk bookkeeping and result assembly.  `--src` imports `fbmpassage` from
another source tree (say, a base revision exported with `git archive`),
so two revisions can be split with one timer.  A stage name that the
tree's runner lacks is left unwrapped and reported as absent.
The bridge scan calls the uniforms stage, so each stage is booked its self
time: a stack of open stages takes the time of the stages a call encloses
out of its own, and the stages add up to at most the runner's wall time.
The pool shape runs serially here, so its pool start-up is not counted.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# runner global -> stage label; every name is looked up in the runner's
# namespace, where the chunk loop finds it
STAGES = {
    "_noise_scales": "spectra",
    "substream": "substream",
    "_complex_noise": "normals",
    "_pair_fft": "FFT",
    "affine_euler": "Euler",
    "_plain_hit_index": "plain scan",
    "_bridge_hit_times_batch": "bridge scan",
    "_row_log_uniforms": "uniforms",
    "_running_extremes": "extremes",
}

# The benchmark's three workloads as runner jobs: horizon 20, level 1
# from x0 = 0.
SHAPES = {
    "sim-multiH-bridge": dict(
        hurst=(0.5, 0.51, 0.52, 0.54, 0.6), steps=2**14, samples=256, rules=("simple", "bridge")
    ),
    "sim-ou-plain": dict(hurst=(0.5,), steps=2**14, samples=512, drift="ou:1", diffusion="const:2"),
    "conjecture-large-pool": dict(
        hurst=(0.5, 0.55, 0.6), steps=2**16, samples=512, rules=(), extreme_indices=(16384, 32768, 65536)
    ),
}


@contextmanager
def timed_stages(runner):
    """Wrap the runner's stage entry points; yields {label: self seconds}, restores them on exit.

    The label of a stage that the runner lacks maps to None in place of seconds.
    """
    seconds = defaultdict(float)
    enclosed = [0.0]  # time of the stages a call encloses, one entry per open stage
    originals = {name: getattr(runner, name) for name in STAGES if hasattr(runner, name)}
    for name in STAGES.keys() - originals.keys():
        seconds[STAGES[name]] = None

    def wrap(label, fn):
        def timed(*args, **kwargs):
            enclosed.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[label] += elapsed - enclosed.pop()
                enclosed[-1] += elapsed

        return timed

    for name, fn in originals.items():
        setattr(runner, name, wrap(STAGES[name], fn))
    try:
        yield seconds
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)


def split(runner, job) -> tuple[float, dict[str, float]]:
    """(runner wall seconds, {stage: seconds}) of one serial run of `job`."""
    with timed_stages(runner) as seconds:
        start = time.perf_counter()
        runner.run_simulation(job, workers=1)
        wall = time.perf_counter() - start
    return wall, dict(seconds)


def report(name: str, wall: float, seconds: dict[str, float]) -> str:
    lines = [f"{name}: runner {wall:.3f} s"]
    rest = wall - sum(s for s in seconds.values() if s is not None)
    for label, s in [*((label, seconds.get(label, 0.0)) for label in dict.fromkeys(STAGES.values())), ("rest", rest)]:
        timing = "  absent" if s is None else f"{s:8.3f} s  {100.0 * s / wall:5.1f}%"
        lines.append(f"  {label:<12} {timing}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), action="append", help="shape to run (default: all)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree that holds fbmpassage")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--steps", type=int, help="grid steps in place of the shape's")
    parser.add_argument("--samples", type=int, help="sample paths in place of the shape's")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from fbmpassage import SimulationJob, runner

    for name in args.shape or SHAPES:
        job = SimulationJob(horizon=20.0, threshold=1.0, master_seed=args.seed, **SHAPES[name])
        if args.steps:
            scale = args.steps / job.steps  # keep the windows at the same times
            indices = tuple(int(i * scale) for i in job.extreme_indices)
            job = dataclasses.replace(job, steps=args.steps, extreme_indices=indices)
        if args.samples:
            job = dataclasses.replace(job, samples=args.samples)
        print(report(name, *split(runner, job)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
