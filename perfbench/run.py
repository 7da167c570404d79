"""Benchmark of the `fbmpassage` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  A timed run (--trace 0) repeats one CLI invocation of the
workload, each in a fresh interpreter, for S seconds: it runs at least
MIN_REPS repetitions and starts another only while one more fits in S.
It reports the median of every end-to-end metric over the repetitions.  Repetition i runs with CLI seed
N * 1000 + i, so a seed fixes every input.  Each repetition's CSVs are
checked against independent references (workloads.py); a non-zero exit
or a failed check counts the repetition as failed.

A traced run (--trace 1) runs the workload twice with the first seed: once
untraced with --workers 1, which gives proc.* and the baseline for the
tracing overhead, and once through tracer.Tracer.  Both must write
byte-identical CSVs.  The per-layer tallies are kept in
perfbench/.scratch/trace-WORKLOAD-N.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import UNITS as LAYER_UNITS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = HERE / ".scratch"

MIN_REPS = 3
# a repetition that has not ended by then is killed and counted as failed
REP_TIMEOUT_S = 75.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "path_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Rep:
    """One CLI invocation: its measurements and what went wrong with it."""

    failures: list[str] = field(default_factory=list)
    check_failed: bool = False
    wall_s: float = 0.0
    setup_s: float = 0.0
    main_s: float = 0.0
    cpu_s: float = 0.0
    sys_s: float = 0.0
    peak_rss_mb: float = 0.0
    minor_faults: int = 0
    csv: dict[str, bytes] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def wait_with_deadline(proc: subprocess.Popen, deadline: float):
    """os.wait4 on the child, which leads its own process group.

    At `deadline` the whole group, pool workers included, is killed.
    Returns the child's rusage, which covers the workers it waited for,
    and whether the deadline passed.
    """
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, timed_out
        if time.monotonic() > deadline and not timed_out:
            timed_out = True
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        time.sleep(0.01)


def run_rep(workload: Workload, seed: int, workers: int | None = None, trace: Path | None = None) -> Rep:
    """One CLI invocation in a fresh interpreter, measured and checked."""
    rep = Rep()
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        out = work / "cli"
        timing = work / "timing.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(timing)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        cmd += ["--", *workload.argv(seed, out, workers)]
        with open(work / "stderr.txt", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True
            )
            usage, timed_out = wait_with_deadline(proc, start + REP_TIMEOUT_S)
        rep.cpu_s = usage.ru_utime + usage.ru_stime
        rep.sys_s = usage.ru_stime
        rep.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        rep.minor_faults = usage.ru_minflt
        if timed_out or proc.returncode != 0:
            tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            reason = "timed out" if timed_out else f"exit code {proc.returncode}"
            rep.failures.append(f"seed {seed}: {reason}: {' | '.join(tail)}")
            return rep
        stamps = json.loads(timing.read_text())
        if Path(stamps["package"]).resolve().parent.parent != SRC:
            rep.failures.append(f"imported fbmpassage from {stamps['package']}, not from {SRC}")
            return rep
        rep.setup_s = stamps["imported"] - start
        rep.main_s = stamps["done"] - stamps["imported"]
        rep.wall_s = stamps["done"] - start
        try:
            problems = workload.check(workload, out)
            rep.csv = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            rep.check_failed = True
            rep.failures += [f"seed {seed}: {p}" for p in problems]
        return rep
    finally:
        shutil.rmtree(work, ignore_errors=True)


def warm_up() -> None:
    """Import the package once untimed, so that bytecode is compiled before any timing.

    A failed import shows in every repetition, so it is not reported here.
    """
    subprocess.run(
        [sys.executable, "-c", "import fbmpassage.cli"],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: Workload, seed: int, seconds: float) -> tuple[list[Rep], dict]:
    reps: list[Rep] = []
    durations: list[float] = []
    start = time.monotonic()
    # start a repetition only if one of median length still fits in `seconds`
    while len(reps) < MIN_REPS or time.monotonic() - start + statistics.median(durations) <= seconds:
        began = time.monotonic()
        rep = run_rep(workload, seed * 1000 + len(reps))
        durations.append(time.monotonic() - began)
        reps.append(rep)
        print(
            f"rep {len(reps)}: wall {rep.wall_s:.3f} s, setup {rep.setup_s:.3f} s, "
            f"cpu {rep.cpu_s:.3f} s, rss {rep.peak_rss_mb:.1f} MB",
            file=sys.stderr,
        )
    good = [r for r in reps if r.ok]
    if not good:
        return reps, {}

    def median(attr):
        return statistics.median(getattr(r, attr) for r in good)

    values = {
        "wall_s": median("wall_s"),
        "setup_s": median("setup_s"),
        "path_steps_per_s": statistics.median(workload.path_steps / r.main_s for r in good),
        "cpu_s": median("cpu_s"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    return reps, {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced_run(workload: Workload, seed: int) -> tuple[list[Rep], dict]:
    cli_seed = seed * 1000
    trace_file = SCRATCH / f"trace-{workload.name}-{seed}.json"
    base = run_rep(workload, cli_seed, workers=1)
    traced = run_rep(workload, cli_seed, trace=trace_file)
    reps = [base, traced]
    if not (base.ok and traced.ok):
        return reps, {}
    if traced.csv != base.csv:
        traced.check_failed = True
        traced.failures.append("traced run wrote different CSV bytes than the untraced run")
        return reps, {}
    report = json.loads(trace_file.read_text())
    values = dict(report["metrics"])
    values["cli.csv_bytes"] = sum(len(b) for b in traced.csv.values())
    values["proc.minor_faults"] = base.minor_faults
    values["proc.sys_s"] = base.sys_s
    values["trace.overhead_s"] = traced.wall_s - base.wall_s
    for name in report["absent"]:
        print(f"trace: entry point {name} is absent; its metrics read 0", file=sys.stderr)
    return reps, {name: metric(values[name], unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**54:
        parser.error("--seed must lie in [0, 2**54)")
    if not (SRC / "fbmpassage" / "cli.py").is_file():
        print(f"error: no fbmpassage sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    warm_up()
    if args.trace:
        reps, metrics = traced_run(workload, args.seed)
    else:
        reps, metrics = timed_run(workload, args.seed, args.seconds)
    for rep in reps:
        for failure in rep.failures:
            print(f"{workload.name}: {failure}", file=sys.stderr)
    if not metrics:
        print(f"{workload.name}: no result", file=sys.stderr)
        return 1
    result = {
        "correct": not any(r.check_failed for r in reps),
        "attempted": len(reps),
        "failed": sum(not r.ok for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
