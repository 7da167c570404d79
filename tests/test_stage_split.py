"""The in-process stage timer in tools/stage_split.py.

Covers:
  - A tiny drifted and a tiny bridge job: every stage the job reaches is
    timed, the stages add up to no more than the runner's wall time, the
    outputs are those of an untimed run, and the wrappers are gone
    afterwards.
  - A stage called from inside another is booked to itself only: the
    enclosing stage's self time leaves it out.
  - A stage name that the runner lacks is left alone and reported as
    absent, as in a source tree from before the stage existed.
  - The command line at a tiny grid, in a fresh process, on all three
    shapes; the tool does not touch the benchmark's files.
  - Each shape is its benchmark workload's job: horizon, level, start,
    steps, samples, H list, model and hit-time rules, and for the
    conjecture workload the window ends at r/20 of the grid for r = 5, 10
    and 20.  The workloads are read from perfbench/ without changing it.
"""

import importlib.util
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from fbmpassage import RULES, SimulationJob, run_simulation, runner

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_split.py"


def _tool():
    spec = importlib.util.spec_from_file_location("stage_split", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "model, reached",
    [
        (dict(drift="ou:1", diffusion="const:2"), {"Euler", "plain scan"}),
        (
            dict(hurst=(0.5, 0.6), rules=("simple", "bridge"), extreme_indices=(64,)),
            {"plain scan", "bridge scan", "uniforms", "extremes"},
        ),
    ],
)
def test_split_times_every_reached_stage_and_restores_the_runner(monkeypatch, model, reached):
    tool = _tool()
    job = SimulationJob(**{"hurst": (0.6,), "horizon": 5.0, "steps": 128, "samples": 10, "master_seed": 7, **model})
    originals = {name: getattr(runner, name) for name in tool.STAGES}
    want = run_simulation(job)
    got = []
    monkeypatch.setattr(runner, "run_simulation", lambda *args, **kw: got.append(run_simulation(*args, **kw)))
    wall, seconds = tool.split(runner, job)
    assert {name: getattr(runner, name) for name in tool.STAGES} == originals
    assert set(seconds) == {"spectra", "substream", "normals", "FFT"} | reached
    assert 0.0 < sum(seconds.values()) <= wall
    assert len(got) == 1 and got[0].keys() == want.keys()
    assert all(np.array_equal(got[0][key], want[key]) for key in want)
    lines = tool.report("tiny", wall, seconds).splitlines()
    assert lines[0].startswith("tiny: runner") and lines[-1].split()[0] == "rest"
    assert len(lines) == 2 + len(set(tool.STAGES.values()))


def test_a_stage_inside_another_books_only_its_self_time():
    tool = _tool()
    fake = types.SimpleNamespace(**{name: lambda *args: None for name in tool.STAGES})
    fake._row_log_uniforms = lambda r, n: time.sleep(0.05)
    fake._bridge_hit_times_batch = lambda *args: fake._row_log_uniforms(0, 1)
    start = time.perf_counter()
    with tool.timed_stages(fake) as seconds:
        fake._bridge_hit_times_batch()
    wall = time.perf_counter() - start
    assert seconds["uniforms"] >= 0.05
    assert seconds["bridge scan"] < 0.04
    assert sum(seconds.values()) <= wall


def test_a_stage_the_runner_lacks_is_reported_absent():
    tool = _tool()
    fake = types.SimpleNamespace(**{name: lambda *args: None for name in tool.STAGES if name != "_row_log_uniforms"})
    originals = dict(vars(fake))
    with tool.timed_stages(fake) as seconds:
        fake._bridge_hit_times_batch()
    assert vars(fake) == originals
    assert seconds["uniforms"] is None and seconds["bridge scan"] >= 0.0
    lines = tool.report("old tree", 1.0, dict(seconds)).splitlines()
    assert [line.split() for line in lines if "uniforms" in line] == [["uniforms", "absent"]]
    assert len(lines) == 2 + len(set(tool.STAGES.values()))


def test_command_line_at_a_tiny_grid():
    src = Path(runner.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, str(TOOL), "--src", str(src), "--steps", "256", "--samples", "6"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    heads = [line.split(":")[0] for line in out.stdout.splitlines() if not line.startswith(" ")]
    assert heads == ["sim-multiH-bridge", "sim-ou-plain", "conjecture-large-pool"]
    assert "perfbench" not in TOOL.read_text()


def test_shapes_are_the_benchmark_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    shapes = _tool().SHAPES
    assert list(shapes) == list(workloads.WORKLOADS)
    for name, w in workloads.WORKLOADS.items():
        job = SimulationJob(horizon=20.0, threshold=1.0, master_seed=3, **shapes[name])
        options = dict(zip(w.options[0::2], w.options[1::2]))
        assert (job.horizon, job.threshold, job.x0) == (workloads.HORIZON, workloads.THRESHOLD, workloads.X0)
        assert (job.steps, job.samples, job.hurst) == (w.steps, w.samples, w.hurst)
        assert (job.drift, job.diffusion) == (options.get("--drift", "zero"), options.get("--diffusion", "one"))
        if w.command == "conjecture":
            assert options["--r-list"] == "5,10,20" and job.rules == ()
            assert job.extreme_indices == tuple(r * w.steps // 20 for r in (5, 10, 20))
        else:
            estimator = options["--estimator"]
            assert job.rules == (RULES if estimator == "both" else (estimator,))
            assert job.extreme_indices == job.marginal_indices == ()
