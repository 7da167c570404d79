"""The benchmark's workloads: one `fbmpassage` CLI invocation each, and its output checks.

Every workload runs on the same horizon, level and start.  A check
returns a list of failure messages; an empty list means the outputs
passed.  Statistical checks compare an estimate with an independent
reference from `reference.py` and allow TOLERANCE_SE standard errors, so
that a correct program fails one check in millions while a biased
estimator or a mis-scaled noise still shows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

HORIZON = 20.0
THRESHOLD = 1.0
X0 = 0.0
LAMBDAS = (1.0, 2.0, 3.0, 4.0)
TOLERANCE_SE = 5.0

OU_K = 1.0
OU_SIGMA = 2.0
ETA = 0.1
P = 2.5
R_LIST = (5.0, 10.0, 20.0)


def _join(values) -> str:
    return ",".join(f"{v:g}" for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    steps: int
    samples: int
    hurst: tuple[float, ...]
    workers: int
    options: tuple[str, ...]
    check: Callable[["Workload", Path], list[str]]

    @property
    def step(self) -> float:
        return HORIZON / self.steps

    @property
    def path_steps(self) -> int:
        """Paths x steps x H values: the grid points one run simulates."""
        return self.samples * self.steps * len(self.hurst)

    def argv(self, seed: int, out: Path, workers: int | None = None) -> list[str]:
        return [
            self.command,
            "--seed", str(seed),
            "--out", str(out),
            "--horizon", f"{HORIZON:g}",
            "--threshold", f"{THRESHOLD:g}",
            "--x0", f"{X0:g}",
            "--steps", str(self.steps),
            "--samples", str(self.samples),
            "--hurst-list", _join(self.hurst),
            "--workers", str(self.workers if workers is None else workers),
            *self.options,
        ]


def _read_rows(out: Path, filename: str) -> list[dict[str, str]]:
    with open(out / filename, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest_failures(out: Path, filename: str) -> list[str]:
    try:
        manifest = json.loads((out / "run_manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"run_manifest.json unreadable: {exc}"]
    if filename not in manifest.get("outputs", []):
        return [f"run_manifest.json does not list {filename}"]
    return []


def _within(label: str, value: float, se: float, ref: float) -> list[str]:
    if not (math.isfinite(value) and se > 0.0 and abs(value - ref) <= TOLERANCE_SE * se):
        return [f"{label}: {value:.6g} +- {se:.3g} is not within {TOLERANCE_SE:g} SE of {ref:.6g}"]
    return []


def _laplace_table(w: Workload, out: Path, estimators: tuple[str, ...]):
    """laplace.csv as {(H, lambda, estimator): (value, se, censored)} plus shape failures."""
    failures = _manifest_failures(out, "laplace.csv")
    table = {}
    for row in _read_rows(out, "laplace.csv"):
        key = (float(row["H"]), float(row["lambda"]), row["estimator"])
        table[key] = (float(row["value"]), float(row["std_error"]), int(row["censored"]))
    expected = {(h, lam, e) for h in w.hurst for lam in LAMBDAS for e in estimators}
    if set(table) != expected:
        failures.append(f"laplace.csv rows {sorted(set(table) ^ expected)} missing or unexpected")
        return table, failures
    for h in w.hurst:
        for e in estimators:
            values = [table[h, lam, e][0] for lam in LAMBDAS]
            if any(a <= b for a, b in zip(values, values[1:])):
                failures.append(f"H={h:g} {e}: values do not fall strictly in lambda: {values}")
            if len({table[h, lam, e][2] for lam in LAMBDAS}) != 1:
                failures.append(f"H={h:g} {e}: censored count differs across lambda")
    return table, failures


def check_multih_bridge(w: Workload, out: Path) -> list[str]:
    table, failures = _laplace_table(w, out, ("simple", "bridge"))
    if failures:
        return failures
    distance = THRESHOLD - X0
    shifted = distance + reference.bgk_shift(w.step)
    for h in w.hurst:
        for lam in LAMBDAS:
            if table[h, lam, "bridge"][0] < table[h, lam, "simple"][0]:
                failures.append(f"H={h:g} lambda={lam:g}: bridge value below the plain value")
    for lam in LAMBDAS:
        value, se, _ = table[0.5, lam, "simple"]
        failures += _within(f"H=0.5 lambda={lam:g} simple", value, se, reference.brownian_laplace(lam, shifted))
        value, se, _ = table[0.5, lam, "bridge"]
        failures += _within(f"H=0.5 lambda={lam:g} bridge", value, se, reference.brownian_laplace(lam, distance))
    return failures


def check_ou_plain(w: Workload, out: Path) -> list[str]:
    table, failures = _laplace_table(w, out, ("simple",))
    if failures:
        return failures
    level = THRESHOLD + reference.bgk_shift(w.step, OU_SIGMA)
    for lam in LAMBDAS:
        value, se, _ = table[0.5, lam, "simple"]
        ref = reference.ou_laplace(lam, OU_K, OU_SIGMA, X0, level)
        failures += _within(f"OU lambda={lam:g} simple", value, se, ref)
    return failures


def check_conjecture(w: Workload, out: Path) -> list[str]:
    failures = _manifest_failures(out, "conjecture.csv")
    table = {}
    for row in _read_rows(out, "conjecture.csv"):
        table[float(row["H"]), float(row["r"])] = (float(row["moment"]), float(row["std_error"]))
    expected = {(h, r) for h in w.hurst for r in R_LIST}
    if set(table) != expected:
        return failures + [f"conjecture.csv rows {sorted(set(table) ^ expected)} missing or unexpected"]
    for (h, r), (moment, se) in sorted(table.items()):
        if not (moment > 0.0 and se > 0.0):
            failures.append(f"H={h:g} r={r:g}: moment {moment} or its SE {se} is not positive")
    for r in R_LIST:
        moment, se = table[0.5, r]
        ref = reference.argmax_moment(r, 0.5 * P, THRESHOLD + ETA)
        failures += _within(f"H=0.5 r={r:g} moment", moment, se, ref)
    return failures


DESK_HURST = (0.5, 0.51, 0.52, 0.54, 0.6)
LAMBDA_OPTION = ("--lambda-list", _join(LAMBDAS))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-multiH-bridge",
            command="simulate",
            steps=2**14,
            samples=256,
            hurst=DESK_HURST,
            workers=1,
            options=(*LAMBDA_OPTION, "--estimator", "both"),
            check=check_multih_bridge,
        ),
        Workload(
            name="sim-ou-plain",
            command="simulate",
            steps=2**14,
            samples=512,
            hurst=(0.5,),
            workers=1,
            options=(
                *LAMBDA_OPTION,
                "--estimator", "simple",
                "--drift", f"ou:{OU_K:g}",
                "--diffusion", f"const:{OU_SIGMA:g}",
            ),
            check=check_ou_plain,
        ),
        Workload(
            name="conjecture-large-pool",
            command="conjecture",
            steps=2**16,
            samples=512,
            hurst=(0.5, 0.55, 0.6),
            workers=2,
            options=("--r-list", _join(R_LIST), "--eta", f"{ETA:g}", "--p", f"{P:g}"),
            check=check_conjecture,
        ),
    )
}
