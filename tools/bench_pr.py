"""Benchmark report of this checkout against a base revision.

    python3 tools/bench_pr.py --base REV --out BENCH.json [--seed 21]

Run from the root of a git checkout.  REV is exported with `git archive`
into a temporary directory, and `perfbench/run.py` runs from both trees on
every workload that BENCHMARK.json declares:

- one traced run per tree (`--trace 1 --seed 3`), whose
  per-layer metrics are copied into the report;
- ten timed pairs (`--trace 0 --seconds <run_seconds>`), base and
  change alternating which runs first, pair i on seed SEED + i.

For every end-to-end metric the report gives each side's median and
quartiles over the pairs, the change's median relative to the base's, the
number of pairs in which the change was better, a verdict against the
metric's bound in BENCHMARK.json: "worse", "unresolved" or "within", and
`claim_met`: whether the change won at least nine in ten of the pairs and
moved the median by more than the base's interquartile range.
Runs are sequential, so a full report takes about
10 x workloads x 2 x (run_seconds + 5) s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
# Ten alternating pairs are the fewest that can show a change better in
# nine of ten; the traced runs use one fixed seed so reports compare.
PAIRS = 10
TRACE_SEED = 3


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result of one perfbench run, or {"error": ...} if it gave none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' spread, the median move, the pairs won and the verdict on its bound.

    The verdict is "worse" when the change's median is worse than the base's
    by more than the bound; "unresolved" when it is not, but the base's
    quartile spread relative to its median exceeds the bound and not every
    change run beats every base run; "within" otherwise.  `claim_met` says
    whether a gain on the metric may be claimed: the change is better in at
    least nine in ten of the pairs, ties counting for neither side, and its
    median is better than the base's by more than the base's quartile spread.
    """
    out = {}
    for spec in metrics:
        name, lower, bound = spec["name"], spec["better"] == "lower", spec["bound"]
        both = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in pairs]
        if not both:
            continue
        bases, changes = [b for b, _ in both], [c for _, c in both]
        base, change = summary(bases), summary(changes)
        move = change["median"] / base["median"] - 1.0
        every_run_better = max(changes) < min(bases) if lower else min(changes) > max(bases)
        if (move if lower else -move) > bound:
            verdict = "worse"
        elif (base["q3"] - base["q1"]) / base["median"] > bound and not every_run_better:
            verdict = "unresolved"
        else:
            verdict = "within"
        better_pairs = sum((c < b) if lower else (c > b) for b, c in both)
        gain = base["median"] - change["median"] if lower else change["median"] - base["median"]
        out[name] = {
            "unit": spec["unit"],
            "base": base,
            "change": change,
            "change_vs_base": move,
            "change_better_pairs": better_pairs,
            "pairs": len(both),
            "bound": bound,
            "verdict": verdict,
            "claim_met": 10 * better_pairs >= 9 * len(both) and gain > base["q3"] - base["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="report file to write")
    parser.add_argument("--seed", type=int, default=21, help="seed of the first timed pair")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_tree = Path(tmp)
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        report = {
            "base": git("rev-parse", args.base),
            "change": git("rev-parse", "HEAD") + (" + uncommitted edits" if git("status", "--porcelain") else ""),
            "host": {
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                # the CPUs the runs could use, which the runner's pool and noise-feed decisions read
                "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                # when set, every run compiles src/ afresh (~20 ms of setup_s), so
                # setup_s compares only between reports that agree on it
                "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
                # as set in this shell, so in every run (None: unset).  A base side run
                # with either one preset has no spinning BLAS worker, so its cpu_s
                # compares only with reports that agree on these settings
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            },
            "command": "perfbench/run.py",
            "traced": {side: {} for side in trees},
            "timed": {},
        }
        for workload in workloads:
            for side, tree in trees.items():
                print(f"traced {workload} {side}", file=sys.stderr)
                result = perfbench(tree, workload, TRACE_SEED, seconds, trace=1)
                report["traced"][side][workload] = result.get("metrics", result)
        for workload in workloads:
            pairs, failed = [], []
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    print(f"timed {workload} pair {i} {side}", file=sys.stderr)
                    got[side] = perfbench(trees[side], workload, args.seed + i, seconds, trace=0)
                if all("metrics" in got[side] and got[side]["failed"] == 0 for side in trees):
                    pairs.append((got["base"], got["change"]))
                else:
                    failed.append({"pair": i, **{side: got[side].get("error", got[side].get("failed")) for side in trees}})
            report["timed"][workload] = {
                "seeds": [args.seed, args.seed + PAIRS - 1],
                "seconds": seconds,
                "failed_pairs": failed,
                "metrics": compare(pairs, spec["end_to_end"]),
            }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
