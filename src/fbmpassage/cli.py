"""Batch experiment driver.

Subcommands run the passage-time experiments from a flat configuration
(defaults, then an optional key=value file, then command-line overrides)
and write CSV tables plus a run_manifest.json into the output directory.
Numbers are serialized with 17 significant digits, and all outputs are
byte-identical across reruns and worker counts for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import platform
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from .analysis import linear_fit, rate_exponent
from .estimate import NoHitsError, density_from_times, gap_estimate, laplace_from_times, truncated_argmax_moments
from .fgn import (
    EmbeddingError,
    Hurst,
    TimeGrid,
    cholesky_fbm,
    circulant_spectrum,
    fbm_path,
    fgn_autocovariance,
    sample_fgn,
)
from .runner import DEFAULT_CHUNK_PAIRS, MemoryBudgetError, SimulationJob, passage_times, run_simulation
from .sde import EllipticityError, PropagationError, affine_coefficients, drift_from_name, euler_solve
from .theory import decay_scale, density_envelope, laplace_bm

__all__ = ["RunConfig", "ConfigError", "main", "run_selftest", "load_config_file", "resolve_config"]

logger = logging.getLogger(__name__)

FULL_SCALE_STEPS = 2**16
FULL_SCALE_SAMPLES = 100_000
ESTIMATOR_CHOICES = ("simple", "bridge", "both")


class ConfigError(Exception):
    """Invalid run configuration; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved experiment parameters.

    Worker count and chunk size are runtime flags, not configuration:
    results do not depend on them, so they stay out of this record and out
    of the manifest.
    """

    seed: int = 1729
    horizon: float = 20.0
    steps: int = 2**14
    samples: int = 10_000
    hurst_list: tuple[float, ...] = (0.5, 0.51, 0.52, 0.54, 0.6)
    lambda_list: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    x0: float = 0.0
    threshold: float = 1.0
    estimator: str = "both"
    drift: str = "zero"
    diffusion: str = "one"
    hist_bins: int = 200
    fig_points: int = 50
    eta: float = 0.1
    p: float = 2.5
    r_list: tuple[float, ...] = (5.0, 10.0, 20.0)
    out: str = "out"


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


_CONFIG_PARSERS = {
    "seed": int,
    "horizon": float,
    "steps": int,
    "samples": int,
    "hurst_list": _parse_floats,
    "lambda_list": _parse_floats,
    "x0": float,
    "threshold": float,
    "estimator": str,
    "drift": str,
    "diffusion": str,
    "hist_bins": int,
    "fig_points": int,
    "eta": float,
    "p": float,
    "r_list": _parse_floats,
    "out": str,
}


def load_config_file(path) -> dict:
    """Parse a flat key = value file; '#' starts a comment, blank lines skip."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key = key.strip()
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parser(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def validate_config(cfg: RunConfig) -> None:
    def fail(msg):
        raise ConfigError(msg)

    if not 0 <= cfg.seed < 2**64:
        fail(f"seed must fit in 64 bits, got {cfg.seed}")
    if not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        fail(f"horizon must be a positive real, got {cfg.horizon}")
    if cfg.steps < 2 or cfg.steps & (cfg.steps - 1):
        fail(f"steps must be a power of two >= 2, got {cfg.steps}")
    if cfg.samples < 100:
        fail(f"samples must be at least 100, got {cfg.samples}")
    if not cfg.hurst_list:
        fail("hurst_list must not be empty")
    for h in cfg.hurst_list:
        if not 0.5 <= h < 1.0:
            fail(f"every Hurst value must lie in [0.5, 1), got {h}")
    if not cfg.lambda_list:
        fail("lambda_list must not be empty")
    for lam in cfg.lambda_list:
        if not (math.isfinite(lam) and lam > 0):
            fail(f"every lambda must be a positive real, got {lam}")
    if not (math.isfinite(cfg.x0) and math.isfinite(cfg.threshold) and cfg.x0 < cfg.threshold):
        fail(f"x0 must be below threshold, got x0={cfg.x0}, threshold={cfg.threshold}")
    if cfg.estimator not in ESTIMATOR_CHOICES:
        fail(f"estimator must be one of {ESTIMATOR_CHOICES}, got {cfg.estimator!r}")
    try:
        affine_coefficients(cfg.drift, cfg.diffusion)
    except ValueError as exc:
        fail(str(exc))
    if cfg.hist_bins < 2:
        fail(f"hist_bins must be at least 2, got {cfg.hist_bins}")
    if cfg.fig_points < 2:
        fail(f"fig_points must be at least 2, got {cfg.fig_points}")
    if not (math.isfinite(cfg.eta) and cfg.eta > 0):
        fail(f"eta must be positive, got {cfg.eta}")
    if not 2.0 < cfg.p < 3.0:
        fail(f"p must lie in (2, 3), got {cfg.p}")
    if not cfg.r_list:
        fail("r_list must not be empty")
    for r in cfg.r_list:
        if not (math.isfinite(r) and r > 0):
            fail(f"every r must be a positive real, got {r}")
    if not cfg.out:
        fail("out must name a directory")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, --paper-scale, and explicit flags (last wins)."""
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    if args.paper_scale:
        values["steps"] = FULL_SCALE_STEPS
        values["samples"] = FULL_SCALE_SAMPLES
    for field in fields(RunConfig):
        given = getattr(args, field.name, None)
        if given is not None:
            values[field.name] = given
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def write_manifest(out_dir: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    config = {}
    for field in fields(cfg):
        v = getattr(cfg, field.name)
        config[field.name] = list(v) if isinstance(v, tuple) else v
    manifest = {
        "command": command,
        "config": config,
        "outputs": sorted(outputs),
        "versions": {
            "fbmpassage": _package_version(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _package_version() -> str:
    from . import __version__

    return __version__


def _estimator_names(cfg: RunConfig) -> tuple[str, ...]:
    return ("simple", "bridge") if cfg.estimator == "both" else (cfg.estimator,)


def _job(cfg: RunConfig, chunk_pairs: int, estimators: tuple[str, ...] = (), **overrides) -> SimulationJob:
    """The simulation job for cfg: every H of hurst_list on one set of paths.

    `estimators` names the hit-time rules to run; `overrides` replaces
    any other job field.
    """
    spec = dict(
        hurst=cfg.hurst_list,
        horizon=cfg.horizon,
        steps=cfg.steps,
        samples=cfg.samples,
        master_seed=cfg.seed,
        threshold=cfg.threshold,
        x0=cfg.x0,
        drift=cfg.drift,
        diffusion=cfg.diffusion,
        want_simple="simple" in estimators,
        want_bridge="bridge" in estimators,
        chunk_pairs=chunk_pairs,
    )
    spec.update(overrides)
    return SimulationJob(**spec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, workers: int, chunk_pairs: int, out_dir: Path) -> list[str]:
    """Laplace table over the (H, lambda, estimator) lattice -> laplace.csv.

    delta_vs_bm is the gap against the Brownian reference: the estimated
    H = 1/2 row with the same estimator when 1/2 is in hurst_list, else the
    closed form when the model is pure fBm, else nan.
    """
    names = _estimator_names(cfg)
    job = _job(cfg, chunk_pairs, names)
    table: dict[float, dict[str, dict[float, object]]] = {}
    for hv, result in zip(cfg.hurst_list, run_simulation(job, workers)):
        times = result.hit_times()
        table[hv] = {
            name: {lam: laplace_from_times(times[name], lam, hv, name) for lam in cfg.lambda_list}
            for name in names
        }
    pure = job.is_pure
    have_half = 0.5 in cfg.hurst_list
    rows = []
    for hv in cfg.hurst_list:
        for lam in cfg.lambda_list:
            for name in names:
                est = table[hv][name][lam]
                if have_half:
                    ref = table[0.5][name][lam]
                    delta, delta_se = (0.0, 0.0) if est is ref else gap_estimate(est, ref)
                elif pure:
                    delta, delta_se = gap_estimate(est, laplace_bm(lam, cfg.x0, cfg.threshold))
                else:
                    delta, delta_se = math.nan, math.nan
                rows.append([hv, lam, name, est.value, est.std_error, est.censored, delta, delta_se])
    write_csv(
        out_dir / "laplace.csv",
        ["H", "lambda", "estimator", "value", "std_error", "censored", "delta_vs_bm", "delta_se"],
        rows,
    )
    return ["laplace.csv"]


def cmd_bridge_compare(cfg: RunConfig, workers: int, chunk_pairs: int, out_dir: Path) -> list[str]:
    """Plain vs bridge-corrected estimator at the configured grid -> bridge_compare.csv.

    Uses the first entry of hurst_list.  The reference column holds the
    closed form when H = 1/2 on pure fBm, otherwise a plain estimate on a
    grid twice as fine (a lower bound on the true transform, so the signed
    errors of the two coarse estimators are comparable against it).
    """
    if cfg.estimator != "both":
        raise ConfigError("bridge-compare needs estimator=both")
    hv = cfg.hurst_list[0]
    job = _job(cfg, chunk_pairs, ("simple", "bridge"), hurst=(hv,))
    (result,) = run_simulation(job, workers)
    times = result.hit_times()
    if hv == 0.5 and job.is_pure:
        reference = {lam: laplace_bm(lam, cfg.x0, cfg.threshold) for lam in cfg.lambda_list}
    else:
        fine_job = _job(cfg, chunk_pairs, ("simple",), hurst=(hv,), steps=2 * cfg.steps)
        (fine,) = run_simulation(fine_job, workers)
        reference = {
            lam: laplace_from_times(fine.tau_simple, lam, hv, "simple").value
            for lam in cfg.lambda_list
        }
    rows = []
    for lam in cfg.lambda_list:
        ref = reference[lam]
        simple = laplace_from_times(times["simple"], lam, hv, "simple").value
        bridge = laplace_from_times(times["bridge"], lam, hv, "bridge").value
        rows.append(
            [
                lam,
                ref,
                simple,
                100.0 * abs(simple - ref) / ref,
                bridge,
                100.0 * abs(bridge - ref) / ref,
            ]
        )
    write_csv(
        out_dir / "bridge_compare.csv",
        ["lambda", "reference_or_fine", "simple", "simple_err_pct", "bridge", "bridge_err_pct"],
        rows,
    )
    return ["bridge_compare.csv"]


def cmd_rate(cfg: RunConfig, workers: int, chunk_pairs: int, out_dir: Path) -> list[str]:
    """Gap-vs-(H - 1/2) regression per lambda -> rate.csv and fig1_data.csv.

    All H values share the same Gaussian draws (the increment stream is
    keyed by path index alone), so gaps between nearby H are far less noisy
    than independent runs would give.
    """
    h_above = [hv for hv in cfg.hurst_list if hv > 0.5]
    if 0.5 not in cfg.hurst_list or len(h_above) < 3:
        raise ConfigError("rate needs hurst_list to contain 0.5 plus at least three larger values")
    name = "simple" if cfg.estimator == "both" else cfg.estimator
    estimates: dict[float, dict[float, object]] = {}
    for hv, result in zip(cfg.hurst_list, run_simulation(_job(cfg, chunk_pairs, (name,)), workers)):
        times = result.hit_times()[name]
        estimates[hv] = {lam: laplace_from_times(times, lam, hv, name) for lam in cfg.lambda_list}

    rate_rows = []
    fig_rows = []
    xs = [hv - 0.5 for hv in h_above]
    for lam in cfg.lambda_list:
        ref = estimates[0.5][lam]
        gaps, ses = [], []
        for hv in h_above:
            gap, gap_se = gap_estimate(estimates[hv][lam], ref)
            gaps.append(gap)
            ses.append(gap_se)
        fit = linear_fit(xs, gaps)
        try:
            beta = rate_exponent(h_above, gaps, ses).slope
        except ValueError as exc:
            raise NoHitsError(f"log-log exponent fit failed for lambda={lam:g}: {exc}") from exc
        rate_rows.append([lam, fit.slope, fit.intercept, fit.r_squared, beta])
        for x, gap, se in zip(xs, gaps, ses):
            fig_rows.append(["point", lam, x, gap, se])
        for x in np.linspace(0.0, max(xs), cfg.fig_points):
            fig_rows.append(["line", lam, x, fit.intercept + fit.slope * x, ""])
    write_csv(out_dir / "rate.csv", ["lambda", "slope", "intercept", "r_squared", "beta_hat"], rate_rows)
    write_csv(out_dir / "fig1_data.csv", ["kind", "lambda", "x", "y", "se"], fig_rows)
    return ["rate.csv", "fig1_data.csv"]


def cmd_density(cfg: RunConfig, workers: int, chunk_pairs: int, out_dir: Path) -> list[str]:
    """Hit-time histogram per Hurst value -> density_H{value}.csv.

    Bridge-corrected times are used unless the estimator is explicitly
    `simple`; the plain rule's systematic late-crossing bias is visible at
    histogram resolution.
    """
    name = "simple" if cfg.estimator == "simple" else "bridge"
    outputs = []
    for hv, result in zip(cfg.hurst_list, run_simulation(_job(cfg, chunk_pairs, (name,)), workers)):
        hist = density_from_times(result.hit_times()[name], cfg.horizon, cfg.hist_bins)
        rows = list(zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.mass))
        filename = f"density_H{hv:g}.csv"
        write_csv(out_dir / filename, ["bin_left", "bin_right", "density"], rows)
        outputs.append(filename)
    return outputs


def cmd_conjecture(cfg: RunConfig, workers: int, chunk_pairs: int, out_dir: Path) -> list[str]:
    """Truncated argmax moments over the r windows -> conjecture.csv.

    Each H row group carries the OLS trend of moment against r; a flat
    trend (slope within noise of zero) means the moments stay bounded over
    the probed windows.  The paths are raw fBm started at zero: the model
    options (x0, threshold, drift, diffusion) do not apply here, and a
    warning names any of them that is set away from its default.
    """
    default = RunConfig()
    model = ("x0", "threshold", "drift", "diffusion")
    ignored = [f"--{name}" for name in model if getattr(cfg, name) != getattr(default, name)]
    if ignored:
        logger.warning("conjecture simulates raw fBm from zero; ignoring %s", ", ".join(ignored))
    for r in cfg.r_list:
        if r > cfg.horizon:
            raise ConfigError(f"r={r:g} exceeds the horizon {cfg.horizon:g}")
    grid = TimeGrid(cfg.horizon, cfg.steps)
    indices = tuple(grid.time_index(r) for r in cfg.r_list)
    job = _job(cfg, chunk_pairs, x0=0.0, drift="zero", diffusion="one", extreme_indices=indices)
    rows = []
    for hv, result in zip(cfg.hurst_list, run_simulation(job, workers)):
        triples = truncated_argmax_moments(
            result.sup_values, result.argmax_times, cfg.r_list, hv * cfg.p, cfg.eta
        )
        if len(triples) >= 2:
            fit = linear_fit([t[0] for t in triples], [t[1] for t in triples])
            slope, slope_se = fit.slope, fit.slope_se
        else:
            slope, slope_se = math.nan, math.nan
        for r, moment, se in triples:
            rows.append([hv, r, moment, se, slope, slope_se])
    write_csv(
        out_dir / "conjecture.csv",
        ["H", "r", "moment", "std_error", "trend_slope", "trend_slope_se"],
        rows,
    )
    return ["conjecture.csv"]


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def run_selftest(cfg: RunConfig, autocov_fn=None) -> list[tuple[str, bool, str]]:
    """Built-in invariant battery; returns (name, passed, detail) triples.

    Statistical checks run on fixed internal seeds so a correct build
    always reports the same statistics; `autocov_fn` swaps the reference
    increment autocovariance (used to prove the covariance check actually
    bites).
    """
    reference_autocov = autocov_fn if autocov_fn is not None else fgn_autocovariance
    checks: list[tuple[str, bool, str]] = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))

    def flat_spectrum():
        grid = TimeGrid(1.0, 256)
        spectrum = circulant_spectrum(Hurst(0.5), grid)
        dev = float(np.max(np.abs(spectrum - grid.step)))
        return dev < 1e-12, f"max |eigenvalue - step| = {dev:.3g} (limit 1e-12)"

    def increment_autocov():
        h = Hurst(0.7)
        grid = TimeGrid(256.0, 256)  # unit step keeps the lags O(1)
        spectrum = circulant_spectrum(h, grid)
        rng = np.random.default_rng(1008)
        data = np.empty((4000, grid.steps))
        for i in range(2000):
            a, b = sample_fgn(spectrum, h, grid, rng)
            data[2 * i] = a.increments
            data[2 * i + 1] = b.increments
        worst = 0.0
        for lag in range(6):
            ref = reference_autocov(h, lag, grid.step)
            stop = grid.steps - lag
            block_means = (data[:, :stop] * data[:, lag : lag + stop]).mean(axis=1)
            se = block_means.std(ddof=1) / math.sqrt(len(block_means))
            worst = max(worst, abs(block_means.mean() - ref) / se)
        return worst < 5.0, f"worst |z| over lags 0..5 = {worst:.2f} (limit 5)"

    def sampler_agreement():
        from scipy.stats import ks_2samp

        h = Hurst(0.8)
        grid = TimeGrid(1.0, 128)
        spectrum = circulant_spectrum(h, grid)
        rng_a = np.random.default_rng(2718)
        rng_b = np.random.default_rng(3141)
        term_a = np.empty(1500)
        for i in range(750):
            a, b = sample_fgn(spectrum, h, grid, rng_a)
            term_a[2 * i] = a.increments.sum()
            term_a[2 * i + 1] = b.increments.sum()
        term_b = np.array([cholesky_fbm(h, grid, rng_b).values[-1] for _ in range(1500)])
        pvalue = float(ks_2samp(term_a, term_b).pvalue)
        return pvalue > 0.001, f"terminal-value KS p = {pvalue:.4f} (limit 0.001)"

    def independent_increments():
        h = Hurst(0.5)
        grid = TimeGrid(1024.0, 1024)
        spectrum = circulant_spectrum(h, grid)
        rng = np.random.default_rng(55)
        data = np.empty((400, grid.steps))
        for i in range(200):
            a, b = sample_fgn(spectrum, h, grid, rng)
            data[2 * i] = a.increments
            data[2 * i + 1] = b.increments
        block_means = (data[:, :-1] * data[:, 1:]).mean(axis=1)
        se = block_means.std(ddof=1) / math.sqrt(len(block_means))
        z = abs(block_means.mean()) / se
        return z < 5.0, f"lag-1 product |z| = {z:.2f} (limit 5)"

    def prefix_sums():
        h = Hurst(0.6)
        grid = TimeGrid(5.0, 512)
        rng = np.random.default_rng(11)
        block, _ = sample_fgn(circulant_spectrum(h, grid), h, grid, rng)
        path = fbm_path(block)
        dev = float(np.max(np.abs(np.diff(path.values) - block.increments)))
        ok = path.values[0] == 0.0 and dev < 1e-12
        return ok, f"max |diff(path) - increments| = {dev:.3g} (limit 1e-12)"

    def bridge_dominance():
        times = passage_times(
            Hurst(0.6), TimeGrid(10.0, 1024), 400, 777, estimators=("simple", "bridge")
        )
        finite = np.isfinite(times["simple"])
        ok = bool(np.all(times["bridge"] <= times["simple"] + 1e-12))
        early = int((times["bridge"][finite] < times["simple"][finite]).sum())
        return ok, f"bridge time <= plain time on all 400 paths ({early} strictly earlier)"

    def euler_zero_drift():
        h = Hurst(0.6)
        grid = TimeGrid(5.0, 512)
        rng = np.random.default_rng(11)
        block, _ = sample_fgn(circulant_spectrum(h, grid), h, grid, rng)
        path = fbm_path(block)
        solved = euler_solve(drift_from_name("zero"), 1.25, path)
        ok = bool(np.array_equal(solved.values, 1.25 + path.values))
        return ok, "zero-drift Euler output equals x0 + path bit for bit"

    def laplace_generator():
        lam, h = 1.7, 1e-4
        worst = 0.0
        for x in (0.0, 0.3, 0.6):
            up = laplace_bm(lam, x + h, 1.0)
            mid = laplace_bm(lam, x, 1.0)
            down = laplace_bm(lam, x - h, 1.0)
            worst = max(worst, abs(0.5 * (up - 2.0 * mid + down) / h**2 - lam * mid))
        return worst < 1e-4, f"max |L''/2 - lambda L| = {worst:.3g} (limit 1e-4)"

    def envelope_identity():
        from scipy.stats import norm

        t = 2.0
        xs = np.linspace(-3.0, 3.0, 13)
        env = density_envelope(t, xs, x0=0.0, h=Hurst(0.5), c=0.0, sigma_sup=1.0)
        dev = float(np.max(np.abs(env - norm.pdf(xs, scale=math.sqrt(t)))))
        return dev < 1e-12, f"max deviation from the Gaussian density = {dev:.3g} (limit 1e-12)"

    def censoring_weight():
        bound = math.exp(-min(cfg.lambda_list) * cfg.horizon)
        return bound < 1e-6, f"max weight of a censored path = {bound:.3g} (limit 1e-6)"

    def decay_branches():
        left = abs(decay_scale(1.0, Hurst(0.75)) - 2.0 ** (2.0 / 3.0))
        right = abs(decay_scale(2.0, Hurst(0.6)) - 2.0)
        dev = max(left, right)
        return dev < 1e-12, f"branch values off by {dev:.3g} (limit 1e-12)"

    record("flat_spectrum_at_h_half", flat_spectrum)
    record("increment_autocovariance", increment_autocov)
    record("circulant_vs_cholesky_ks", sampler_agreement)
    record("brownian_increment_independence", independent_increments)
    record("path_prefix_sums", prefix_sums)
    record("bridge_dominance", bridge_dominance)
    record("euler_zero_drift_exact", euler_zero_drift)
    record("laplace_reference_ode", laplace_generator)
    record("envelope_gaussian_identity", envelope_identity)
    record("censoring_weight_bound", censoring_weight)
    record("decay_scale_branches", decay_branches)
    return checks


def _format_selftest(checks: list[tuple[str, bool, str]]) -> str:
    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in checks]
    failed = [name for name, ok, _ in checks if not ok]
    lines.append(f"selftest: {len(checks) - len(failed)} passed, {len(failed)} failed")
    if failed:
        lines.append("failed checks: " + ", ".join(failed))
    return "\n".join(lines)


def cmd_selftest(cfg: RunConfig, workers: int, chunk_pairs: int, out_dir: Path) -> list[str]:
    checks = run_selftest(cfg)
    report = _format_selftest(checks)
    print(report)
    (out_dir / "selftest_report.txt").write_text(report + "\n")
    if any(not ok for _, ok, _ in checks):
        raise _SelftestFailure()
    return ["selftest_report.txt"]


class _SelftestFailure(Exception):
    """Internal signal: report already printed, exit with code 1."""


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "bridge-compare": cmd_bridge_compare,
    "rate": cmd_rate,
    "density": cmd_density,
    "conjecture": cmd_conjecture,
    "selftest": cmd_selftest,
}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    # config-field options default to None so explicit flags are detectable
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count, at least 1 and capped at the chunk and CPU counts; results do not depend on it",
    )
    parser.add_argument(
        "--chunk-pairs",
        type=int,
        default=None,
        metavar="N",
        help="path pairs per work chunk; results do not depend on it",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"full reference scale: steps={FULL_SCALE_STEPS}, samples={FULL_SCALE_SAMPLES} "
        "(explicit --steps/--samples still win)",
    )
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--horizon", type=float, help="time horizon T")
    parser.add_argument("--steps", type=int, help="grid intervals N (power of two)")
    parser.add_argument("--samples", type=int, help="Monte Carlo sample count M")
    parser.add_argument("--hurst-list", type=_parse_floats, metavar="H,...", help="Hurst values in [0.5, 1)")
    parser.add_argument("--lambda-list", type=_parse_floats, metavar="L,...", help="transform arguments, > 0")
    parser.add_argument("--x0", type=float, help="starting level (below threshold)")
    parser.add_argument("--threshold", type=float, help="passage level")
    parser.add_argument("--estimator", choices=list(ESTIMATOR_CHOICES), help="hit-time rule(s) to run")
    parser.add_argument("--drift", help="drift spec: zero, linear:a,c or ou:k")
    parser.add_argument("--diffusion", help="diffusion spec: one or const:s")
    parser.add_argument("--hist-bins", type=int, help="histogram bin count (density)")
    parser.add_argument("--fig-points", type=int, help="fitted-line sample count (rate)")
    parser.add_argument("--eta", type=float, help="supremum truncation margin (conjecture)")
    parser.add_argument("--p", type=float, help="moment order in (2, 3) (conjecture)")
    parser.add_argument("--r-list", type=_parse_floats, metavar="R,...", help="window lengths (conjecture)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmpassage",
        description="Exact fBm synthesis and first-passage Laplace transform experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {_package_version()}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    helps = {
        "simulate": "estimate hit-time Laplace transforms over the H and lambda grids",
        "bridge-compare": "compare plain and bridge-corrected estimators against a reference",
        "rate": "regress the transform gap on H - 1/2 and fit its log-log exponent",
        "density": "histogram hit times for each Hurst value",
        "conjecture": "truncated argmax moments over several windows",
        "selftest": "run built-in statistical and analytic invariant checks",
    }
    for name, help_text in helps.items():
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        _add_common_options(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        cfg = resolve_config(args)
        workers = args.workers
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers}")
        chunk_pairs = args.chunk_pairs if args.chunk_pairs is not None else DEFAULT_CHUNK_PAIRS
        if chunk_pairs < 1:
            raise ConfigError(f"chunk-pairs must be positive, got {chunk_pairs}")
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = _COMMANDS[args.command](cfg, workers, chunk_pairs, out_dir)
        write_manifest(out_dir, args.command, cfg, outputs)
        return 0
    except _SelftestFailure:
        return 1
    except (ConfigError, MemoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmbeddingError, EllipticityError, PropagationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NoHitsError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return 4
