"""The in-process function timer in tools/stage_split.py.

Covers:
  - A tiny run of each benchmark workload's own command line: its CSVs are
    those of an untimed `cli.main` of the same argv, its main thread's
    functions add up to no more than the CLI call's wall time, it names the
    hot functions the workload reaches, and every package attribute is
    restored after.
  - A function called from inside another is booked to itself only: the
    enclosing function's self time leaves it out.  A call on another thread
    is booked apart, under a "[helper]" label, and takes nothing from the
    calls open on the main thread; a serial run of several H values or of
    one, on two CPUs, books noise draws there, and with several H values
    the FFT too, and on one CPU it has no helper rows.
  - The command line at a tiny grid, in a fresh process, on all three
    workloads; every file git tracks under perfbench/ is unchanged by it.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from fbmpassage import cli, runner

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_split.py"
EVERY_WORKLOAD = {"fgn._pair_paths", "fgn._pair_fft", "runner._chunk_compute"}
REACHED = {
    "sim-multiH-bridge": {"passage._bridge_hit_times_batch", "passage._plain_hit_index"},
    "sim-ou-plain": {"sde.affine_euler"},
    "conjecture-large-pool": {"runner._running_extremes"},
}


def _tool():
    spec = importlib.util.spec_from_file_location("stage_split", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(modules) -> dict:
    return {(module.__name__, key): value for module in modules for key, value in vars(module).items()}


@pytest.mark.parametrize("name", REACHED)
def test_tiny_workload_run_is_timed_and_keeps_outputs(tmp_path, name):
    tool = _tool()
    workload = tool.load_workloads()[name]
    modules = tool.package_modules()
    before = _attributes(modules)
    wall, seconds = tool.timed_main(tool.workload_argv(workload, 5, tmp_path / "timed", 256, 100))
    after = _attributes(modules)
    assert after.keys() == before.keys() and all(after[key] is value for key, value in before.items())
    assert EVERY_WORKLOAD | REACHED[name] <= {label.removesuffix(tool.HELPER) for label in seconds}
    assert 0.0 < tool.main_thread_seconds(seconds) <= wall
    assert cli.main(tool.workload_argv(workload, 5, tmp_path / "plain", 256, 100)) == 0
    csvs = sorted(path.name for path in (tmp_path / "plain").glob("*.csv"))
    assert csvs and csvs == sorted(path.name for path in (tmp_path / "timed").glob("*.csv"))
    assert all((tmp_path / "timed" / f).read_bytes() == (tmp_path / "plain" / f).read_bytes() for f in csvs)
    lines = tool.report(name, wall, seconds).splitlines()
    assert lines[0].startswith(f"{name}: CLI") and lines[-1].split()[0] == "rest"
    assert len(lines) == 2 + len(seconds)


def test_a_stage_inside_another_books_only_its_self_time():
    tool = _tool()
    fake = types.ModuleType("fake")
    exec("import time\ndef inner():\n    time.sleep(0.05)\ndef outer():\n    inner()\n", vars(fake))
    start = time.perf_counter()
    with tool.timed_functions([fake]) as seconds:
        fake.outer()
    wall = time.perf_counter() - start
    assert seconds["fake.inner"] >= 0.05
    assert seconds["fake.outer"] < 0.04
    assert sum(seconds.values()) <= wall


def test_a_call_on_another_thread_is_booked_apart():
    tool = _tool()
    fake = types.ModuleType("fake")
    exec("import time\ndef inner():\n    time.sleep(0.05)\ndef outer():\n    time.sleep(0.1)\n", vars(fake))
    start = time.perf_counter()
    with tool.timed_functions([fake]) as seconds:
        helper = threading.Thread(target=fake.inner)
        helper.start()  # inner runs while outer is open on this thread
        fake.outer()
        helper.join(timeout=10)
    wall = time.perf_counter() - start
    assert not helper.is_alive()
    assert seconds.keys() == {"fake.outer", "fake.inner [helper]"}
    assert seconds["fake.outer"] >= 0.1 and seconds["fake.inner [helper]"] >= 0.05
    assert tool.main_thread_seconds(seconds) == seconds["fake.outer"] <= wall


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_multi_h_run_books_its_noise_helper_apart(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(runner, "FEED_STEPS", 256)  # the tiny grid draws ahead
    tool = _tool()
    for name in ("sim-multiH-bridge", "sim-ou-plain"):  # several H values, and one
        workload = tool.load_workloads()[name]
        wall, seconds = tool.timed_main(tool.workload_argv(workload, 5, tmp_path / name, 256, 100))
        helper = {label for label in seconds if label.endswith(tool.HELPER)}
        if cpus == 1:
            assert not helper and "fgn._pair_paths" in seconds, name
        elif name == "sim-multiH-bridge":  # zero drift: the helper computes whole chunks, scans included
            assert {"runner._chunk_compute [helper]", "fgn._pair_fft [helper]"} <= helper, name
        else:  # the Euler loop: the helper fills one pair per take, and the caller steps and scans
            assert {"fgn._pair_paths [helper]", "runner._fill_paths [helper]"} <= helper, name
            assert "runner._chunk_compute [helper]" not in helper, name
        assert 0.0 < tool.main_thread_seconds(seconds) <= wall
        rest = tool.report(name, wall, seconds).splitlines()[-1].split()
        assert rest[0] == "rest" and float(rest[1]) >= -0.0005


def _tracked_digests(tree: Path) -> dict[str, str]:
    """Digests of the files git tracks under `tree`, so not the scratch files a benchmark run writes there.

    Where git lists none (an exported tree), every file counts but those
    under the git-ignored .scratch/ and __pycache__/.
    """
    listed = subprocess.run(["git", "ls-files", "-z", "--", "."], cwd=tree, capture_output=True).stdout
    files = [tree / name for name in listed.decode().split("\0") if name]
    if not files:
        ignored = {".scratch", "__pycache__"}
        files = [p for p in tree.rglob("*") if p.is_file() and not ignored & set(p.relative_to(tree).parts)]
    return {str(p.relative_to(tree)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def test_command_line_at_a_tiny_grid():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, str(TOOL), "--src", str(src), "--steps", "256", "--samples", "100"]
    before = _tracked_digests(ROOT / "perfbench")
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    heads = [line.split(":")[0] for line in out.stdout.splitlines() if not line.startswith(" ")]
    assert heads == ["sim-multiH-bridge", "sim-ou-plain", "conjecture-large-pool"]
    assert _tracked_digests(ROOT / "perfbench") == before
