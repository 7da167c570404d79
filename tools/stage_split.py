"""In-process timer of the benchmark's CLI commands, by package function.

    python3 tools/stage_split.py [--shape NAME] [--src DIR] [--seed S] [--steps N] [--samples M]

Builds each benchmark workload's command line with `perfbench/workloads.py`
(one worker, so it runs serially and its pool start-up is not counted),
appends `--steps` and `--samples` when given (the last flag wins; the
conjecture windows are times, so they need no rescaling), and runs it
through `fbmpassage.cli.main` in this process.  Every function defined in
an `fbmpassage` module is wrapped with `time.perf_counter` at each module
attribute that refers to it, and labelled `module.name`, for example
`fgn._pair_fft`.  Each call is booked its self time: a stack of open calls
per thread takes the time of the calls one encloses out of its own.  Calls
made on another thread than the CLI call's, such as the runner's
helper, are booked apart under "module.name [helper]": without an Euler
loop the helper computes whole chunks (`runner._chunk_compute [helper]`,
scans included), and with one it fills one pair per take
(`fgn._pair_paths [helper]`).  The
main thread's functions add up to at most the CLI call's wall time, and
"rest" is its time outside any package function.  The report lists each
reached function's seconds and share of the CLI call, largest first.
A drifted serial run with a spare CPU fills one pair per call, so the
4-pair fills that pool workers run are timed by running this tool under
`taskset -c 0`.
`--src` imports `fbmpassage` from another source tree (say, a base
revision exported with `git archive`), so two revisions can be split with
one timer; the tree's CLI must take the workload flags.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import sys
import tempfile
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# label suffix of the calls made on a thread other than the CLI call's
HELPER = " [helper]"


def load_workloads() -> dict:
    """perfbench's {name: Workload}, imported without writing bytecode into perfbench/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(ROOT / "perfbench"))


def package_modules() -> list[types.ModuleType]:
    """`fbmpassage` and every submodule but `__main__`, imported."""
    package = importlib.import_module("fbmpassage")
    names = [info.name for info in pkgutil.iter_modules(package.__path__, "fbmpassage.")]
    return [package, *(importlib.import_module(name) for name in names if name != "fbmpassage.__main__")]


@contextmanager
def timed_functions(modules):
    """Wrap every function defined in one of `modules` at each of their attributes that refers to it.

    Yields {"module.name": self seconds}; a call made on any thread but the
    one that entered is booked apart, as "module.name [helper]".  Restores
    every attribute on exit.
    """
    seconds = defaultdict(float)
    main = threading.get_ident()
    # per thread: the time of the calls a call encloses, one entry per open call
    enclosed = defaultdict(lambda: [0.0])
    defined = {module.__name__ for module in modules}
    wrappers = {}
    originals = {}

    def wrap(fn):
        label = f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"

        def timed(*args, **kwargs):
            thread = threading.get_ident()
            stack = enclosed[thread]
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[label if thread == main else label + HELPER] += elapsed - stack.pop()
                stack[-1] += elapsed

        return timed

    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value.__module__ in defined:
                originals[module, name] = value
    for (module, name), fn in originals.items():
        if fn not in wrappers:
            wrappers[fn] = wrap(fn)
        setattr(module, name, wrappers[fn])
    try:
        yield seconds
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)


def timed_main(argv: list[str]) -> tuple[float, dict[str, float]]:
    """(wall seconds, {function: self seconds}) of one `fbmpassage.cli.main(argv)`; exits on a nonzero code."""
    modules = package_modules()
    cli = sys.modules["fbmpassage.cli"]
    with timed_functions(modules) as seconds:
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"fbmpassage {' '.join(argv)} exited {code}")
    return wall, dict(seconds)


def main_thread_seconds(seconds: dict[str, float]) -> float:
    """The seconds booked on the CLI call's own thread: at most its wall time."""
    return sum(s for label, s in seconds.items() if not label.endswith(HELPER))


def report(name: str, wall: float, seconds: dict[str, float]) -> str:
    rows = [*sorted(seconds.items(), key=lambda item: -item[1]), ("rest", wall - main_thread_seconds(seconds))]
    width = max(len(label) for label, _ in rows)
    lines = [f"{name}: CLI {wall:.3f} s"]
    lines += [f"  {label:<{width}} {s:8.3f} s  {100.0 * s / wall:5.1f}%" for label, s in rows]
    return "\n".join(lines)


def workload_argv(workload, seed: int, out: Path, steps: int | None, samples: int | None) -> list[str]:
    """The workload's own serial command line, with `--steps` and `--samples` appended when given."""
    argv = workload.argv(seed, out, workers=1)
    for flag, value in (("--steps", steps), ("--samples", samples)):
        if value:
            argv += [flag, str(value)]
    return argv


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(workloads), action="append", help="workload to run (default: all)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree that holds fbmpassage")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--steps", type=int, help="grid steps in place of the workload's")
    parser.add_argument("--samples", type=int, help="sample paths in place of the workload's")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    for name in args.shape or workloads:
        with tempfile.TemporaryDirectory(prefix="stage-split-") as out:
            command = workload_argv(workloads[name], args.seed, Path(out), args.steps, args.samples)
            print(report(name, *timed_main(command)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
