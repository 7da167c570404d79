"""Fast tests of the benchmark's own code: its references, its checks and a tiny workload.

    python3 -m pytest perfbench/tests
"""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_bgk_constant():
    assert reference.BGK_BETA == pytest.approx(1.4603545088095868 / (2.0 * 3.141592653589793) ** 0.5, rel=1e-12)


def test_ou_reference_tends_to_brownian_as_k_vanishes():
    lam, sigma = 1.0, 2.0
    level = 1.0 + reference.bgk_shift(20.0 / 2**14, sigma)
    bm = reference.brownian_laplace(lam, level, sigma)
    errors = [abs(reference.ou_laplace(lam, k, sigma, 0.0, level) / bm - 1.0) for k in (0.1, 0.03, 0.01)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3


@pytest.mark.parametrize("hurst", [0.5, 0.6])
@pytest.mark.parametrize("r", [5.0, 10.0, 20.0])
def test_argmax_quadrature_tends_to_arcsine_moment(hurst, r):
    q = hurst * workloads.P
    limit = reference.arcsine_moment(r, q)
    values = [reference.argmax_moment(r, q, 1.0 + eta) for eta in (0.1, 1.0, 10.0, 1e4)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(limit, rel=1e-9)


def _write_laplace(out: Path, rows):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "laplace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["H", "lambda", "estimator", "value", "std_error", "censored", "delta_vs_bm", "delta_se"])
        writer.writerows(rows)
    (out / "run_manifest.json").write_text(json.dumps({"outputs": ["laplace.csv"]}))


def _exact_ou_rows(w, se):
    level = workloads.THRESHOLD + reference.bgk_shift(w.step, workloads.OU_SIGMA)
    return [
        [0.5, lam, "simple", reference.ou_laplace(lam, workloads.OU_K, workloads.OU_SIGMA, 0.0, level), se, 3, 0, 0]
        for lam in workloads.LAMBDAS
    ]


def test_ou_check_accepts_the_reference_and_rejects_an_offset(tmp_path):
    w = workloads.WORKLOADS["sim-ou-plain"]
    rows = _exact_ou_rows(w, se=1e-3)
    _write_laplace(tmp_path / "good", rows)
    assert w.check(w, tmp_path / "good") == []
    rows[0][3] -= 6e-3  # six standard errors low
    _write_laplace(tmp_path / "off", rows)
    assert len(w.check(w, tmp_path / "off")) == 1


def test_laplace_checks_reject_shape_faults(tmp_path):
    w = workloads.WORKLOADS["sim-ou-plain"]
    rows = _exact_ou_rows(w, se=1e-3)
    rows[1][5] = 4  # censored count must not depend on lambda
    _write_laplace(tmp_path / "censored", rows)
    assert any("censored" in f for f in w.check(w, tmp_path / "censored"))
    _write_laplace(tmp_path / "short", rows[:3])
    assert any("missing" in f for f in w.check(w, tmp_path / "short"))


def _run_cli(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "fbmpassage", *argv], env=env, cwd=ROOT, check=True, capture_output=True)


def test_shrunk_conjecture_workload_is_byte_identical_across_workers(tmp_path):
    # 600 paths are three chunks, so two workers split the work
    w = dataclasses.replace(workloads.WORKLOADS["conjecture-large-pool"], steps=2**10, samples=600)
    for workers in (1, 2):
        _run_cli(w.argv(seed=7, out=tmp_path / f"w{workers}", workers=workers))
    one, two = (tmp_path / "w1" / "conjecture.csv").read_bytes(), (tmp_path / "w2" / "conjecture.csv").read_bytes()
    assert one == two
    assert one.count(b"\n") == 1 + len(w.hurst) * len(workloads.R_LIST)
