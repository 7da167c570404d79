"""Batch experiment driver.

Subcommands run the passage-time experiments from a flat configuration
(defaults, then an optional key=value file, then command-line overrides)
and write CSV tables plus a run_manifest.json into the output directory.
Numbers are serialized with 17 significant digits, and all outputs are
byte-identical across reruns and worker counts for a fixed configuration.
"""

from __future__ import annotations

import os

# No code here calls BLAS, yet numpy's OpenBLAS (and scipy's copy) starts a
# worker thread when it loads, which spins through the rest of the import:
# with it `import fbmpassage.cli` took 0.24 s of CPU for 0.13 s of wall time,
# without it 0.14 s for 0.14 s (medians of 20 fresh interpreters, 2 vCPUs).
# So the command line loads them with one thread unless the user set a
# count; `import fbmpassage` alone leaves BLAS threading to the importer.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import json
import logging
import math
import platform
import re
import stat
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import linear_fit, rate_exponent
from .estimate import NoHitsError, density_from_times, gap_estimate, laplace_from_times, truncated_argmax_moments
from .fgn import EmbeddingError, circulant_spectrum, fgn_autocovariance
from .runner import RULES, MemoryBudgetError, SimulationJob, _brownian_level, _check_fits_in_memory, run_simulation
from .sde import PropagationError, affine_euler, reduced_model
from .theory import laplace_bm

__all__ = ["RunConfig", "ConfigError", "main", "run_selftest", "load_config_file", "resolve_config"]

logger = logging.getLogger(__name__)

FULL_SCALE_STEPS = 2**16
FULL_SCALE_SAMPLES = 100_000
ESTIMATOR_CHOICES = (*RULES, "both")
# Peak bytes per bin of a density histogram: its edge, width and density
# arrays, measured with tracemalloc at 10^6 bins (40.2 B).  Its CSV rows
# are streamed from them, one at a time.
HISTOGRAM_BYTES_PER_BIN = 41
CONFIG_MAX_BYTES = 2**20  # a longer config file is refused, after reading one byte past this


class ConfigError(Exception):
    """Invalid run configuration; the CLI maps this to exit code 2."""


class _StderrHandler(logging.StreamHandler):
    """Writes to sys.stderr as it is when a record is emitted, not when the handler is made."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


_parse_floats.__name__ = "float list"  # argparse's "invalid <type> value" names a type by it

# Value parser of a config key and of its flag, by the RunConfig annotation.
_VALUE_PARSERS = {"int": int, "float": float, "str": str, "tuple[float, ...]": _parse_floats}


def _option(default, help: str, **flag):
    """A RunConfig field: its default, plus the help text and any choices or
    metavar of its command-line flag."""
    return field(default=default, metadata={"help": help, **flag})


@dataclass(frozen=True)
class RunConfig:
    """Resolved experiment parameters.

    Each field declares one option: the config-file key of its name, and
    the flag --name with underscores as dashes, parsed by its annotation.
    The worker count is a runtime flag, not configuration: results do not
    depend on it, so it stays out of this record and out of the manifest.
    """

    seed: int = _option(1729, "master seed (unsigned 64-bit)")
    horizon: float = _option(20.0, "time horizon T")
    steps: int = _option(2**14, "grid intervals N (power of two)")
    samples: int = _option(10_000, "Monte Carlo sample count M")
    hurst_list: tuple[float, ...] = _option((0.5, 0.51, 0.52, 0.54, 0.6), "Hurst values in [0.5, 1)", metavar="H,...")
    lambda_list: tuple[float, ...] = _option((1.0, 2.0, 3.0, 4.0), "transform arguments, > 0", metavar="L,...")
    x0: float = _option(0.0, "starting level (below threshold)")
    threshold: float = _option(1.0, "passage level")
    estimator: str = _option("both", "hit-time rule(s) to run", choices=ESTIMATOR_CHOICES)
    drift: str = _option("zero", "drift spec: zero, linear:a,c or ou:k")
    diffusion: str = _option("one", "diffusion spec: one or const:s")
    hist_bins: int = _option(200, "histogram bin count (density)")
    eta: float = _option(0.1, "supremum truncation margin (conjecture)")
    p: float = _option(2.5, "moment order in (2, 3) (conjecture)")
    r_list: tuple[float, ...] = _option((5.0, 10.0, 20.0), "window lengths (conjecture)", metavar="R,...")
    out: str = _option("out", "output directory (default: out)")


def load_config_file(path) -> dict:
    """Parse a flat key = value file of UTF-8, CONFIG_MAX_BYTES at most; '#' starts a comment, blank lines skip."""
    nonblock = getattr(os, "O_NONBLOCK", 0)  # a FIFO with no writer when it is opened is refused, not waited on
    try:
        with open(path, "rb", opener=lambda name, flags: os.open(name, flags | nonblock)) as fh:
            if nonblock:
                os.set_blocking(fh.fileno(), True)
            data = fh.read(CONFIG_MAX_BYTES + 1)
            if not data and stat.S_ISFIFO(os.fstat(fh.fileno()).st_mode):
                raise ConfigError(f"config file {path} is a FIFO with no writer, or an empty pipe")
        if len(data) > CONFIG_MAX_BYTES:
            raise ConfigError(f"config file {path} exceeds the cap of {CONFIG_MAX_BYTES} bytes (1 MiB)")
        text = data.decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    options = {option.name: option for option in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key = key.strip()
        option = options.get(key)
        if option is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _VALUE_PARSERS[option.type](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _list_entries(values, name: str, label: str, valid, problem: str):
    """Yield each entry of a list option that passes `valid` and equals no later entry; the list must not be empty."""
    if not values:
        raise ConfigError(f"{name} must not be empty")
    ahead = Counter(values)  # each value's count from the current entry on: one pass finds every repeat
    for x in values:
        if not valid(x):
            raise ConfigError(f"{problem}, got {x}")
        ahead[x] -= 1
        if ahead[x]:
            raise ConfigError(f"{name} repeats {label}={x!r}")
        yield x


def validate_config(cfg: RunConfig) -> None:
    def fail(msg):
        raise ConfigError(msg)

    def positive(x):
        return math.isfinite(x) and x > 0

    if not 0 <= cfg.seed < 2**64:
        fail(f"seed must fit in 64 bits, got {cfg.seed}")
    if not (math.isfinite(cfg.horizon) and cfg.horizon > 0):
        fail(f"horizon must be a positive real, got {cfg.horizon}")
    if cfg.steps < 2 or cfg.steps & (cfg.steps - 1):
        fail(f"steps must be a power of two >= 2, got {cfg.steps}")
    if cfg.samples < 100:
        fail(f"samples must be at least 100, got {cfg.samples}")
    step = cfg.horizon / cfg.steps
    variances = []
    for h in _list_entries(
        cfg.hurst_list, "hurst_list", "H", lambda h: 0.5 <= h < 1.0, "every Hurst value must lie in [0.5, 1)"
    ):
        # the increment variance step^(2H) scales every spectrum and bridge
        try:
            variance = step ** (2.0 * h)
        except OverflowError:
            variance = math.inf
        if not (math.isfinite(variance) and variance > 0):
            fail(f"(horizon/steps)^(2H) must be positive and finite, got {variance} for step {step:g} and H={h}")
        variances.append(variance)
    for _ in _list_entries(cfg.lambda_list, "lambda_list", "lambda", positive, "every lambda must be a positive real"):
        pass
    if not (math.isfinite(cfg.x0) and math.isfinite(cfg.threshold) and cfg.x0 < cfg.threshold):
        fail(f"x0 must be below threshold, got x0={cfg.x0}, threshold={cfg.threshold}")
    if cfg.estimator not in ESTIMATOR_CHOICES:
        fail(f"estimator must be one of {ESTIMATOR_CHOICES}, got {cfg.estimator!r}")
    try:
        level = reduced_model(cfg.drift, cfg.diffusion, cfg.x0, cfg.threshold)[3]
    except ValueError as exc:
        fail(str(exc))
    # The bridge test divides 2 (level - y)^2 by step^(2H), with the reduced
    # level and paths within 64 standard deviations, horizon^H, of zero.
    # Hit times reach 2 horizon and meet lambda in exp(-lambda t).  Both
    # must stay finite.
    scale = level + 64.0 * max(cfg.horizon**h for h in cfg.hurst_list)
    if not math.isfinite(2.0 * scale * scale / min(variances)):
        fail(f"path scale (threshold - x0)/s + 64 horizon^H = {scale:g} overflows the bridge test 2 scale^2 / step^(2H)")
    if not math.isfinite(2.0 * cfg.horizon * max(1.0, *cfg.lambda_list)):
        fail(f"time scale 2 horizon max(1, lambda) overflows for horizon {cfg.horizon:g}")
    if cfg.hist_bins < 2:
        fail(f"hist_bins must be at least 2, got {cfg.hist_bins}")
    if not (math.isfinite(cfg.eta) and cfg.eta > 0):
        fail(f"eta must be positive, got {cfg.eta}")
    if not 2.0 < cfg.p < 3.0:
        fail(f"p must lie in (2, 3), got {cfg.p}")
    for _ in _list_entries(cfg.r_list, "r_list", "r", positive, "every r must be a positive real"):
        pass
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
    for option in fields(RunConfig):
        given = getattr(args, option.name)
        if given == []:  # argparse (3.11) drops the value of "--name=--" and stores []
            try:
                given = _VALUE_PARSERS[option.type]("--")
            except ValueError as exc:
                raise ConfigError(f"bad value for --{option.name.replace('_', '-')}: {exc}") from exc
        if given is not None:
            values[option.name] = given
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


@contextmanager
def _output(path: Path):
    """The file at `path`, open for writing; an OSError on the way becomes a ConfigError."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path: Path, header: list[str], rows) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def write_manifest(out_dir: Path, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": asdict(cfg),
        "outputs": sorted(outputs),
        "versions": {
            "fbmpassage": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
    }
    with _output(out_dir / "run_manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _job(cfg: RunConfig, **overrides) -> SimulationJob:
    """The simulation job for cfg: every H of hurst_list on one set of paths.

    It runs the hit-time rules that cfg.estimator names; `overrides`
    replaces any job field.
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
        rules=RULES if cfg.estimator == "both" else (cfg.estimator,),
    )
    spec.update(overrides)
    return SimulationJob(**spec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, workers: int, out_dir: Path) -> list[str]:
    """Laplace table over the (H, lambda, estimator) lattice -> laplace.csv.

    delta_vs_bm is the gap against the Brownian reference: the estimated
    H = 1/2 row with the same estimator when 1/2 is in hurst_list (delta_se
    is then the SE of per-path differences, and that row reads 0 +- 0),
    else the closed form when the reduced drift is zero, else nan.
    """
    job = _job(cfg)
    times = run_simulation(job, workers)
    level = _brownian_level(job)
    censored = {name: np.isinf(times[name]).sum(axis=1) for name in job.rules}
    half = cfg.hurst_list.index(0.5) if 0.5 in cfg.hurst_list else None
    rows = []
    for k, hv in enumerate(cfg.hurst_list):
        for lam in cfg.lambda_list:
            for name in job.rules:
                value, se = laplace_from_times(times[name][k], lam)
                if half is not None:
                    delta, delta_se = gap_estimate(times[name][k], times[name][half], lam)
                elif level is not None:
                    delta, delta_se = laplace_bm(lam, 0.0, level) - value, se
                else:
                    delta, delta_se = math.nan, math.nan
                rows.append([hv, lam, name, value, se, censored[name][k], delta, delta_se])
    write_csv(
        out_dir / "laplace.csv",
        ["H", "lambda", "estimator", "value", "std_error", "censored", "delta_vs_bm", "delta_se"],
        rows,
    )
    return ["laplace.csv"]


def cmd_bridge_compare(cfg: RunConfig, workers: int, out_dir: Path) -> list[str]:
    """Plain vs bridge-corrected estimator at the configured grid -> bridge_compare.csv.

    Uses the first entry of hurst_list.  The reference column is the closed
    form when H = 1/2 with zero reduced drift, else a plain estimate on a grid
    twice as fine (a lower bound, so both coarse signed errors compare to it).
    """
    hv = cfg.hurst_list[0]
    job = _job(cfg, hurst=(hv,), rules=RULES)
    level = _brownian_level(job) if hv == 0.5 else None
    if level is not None:
        reference = [laplace_bm(lam, 0.0, level) for lam in cfg.lambda_list]
    else:
        fine_job = _job(cfg, hurst=(hv,), steps=2 * cfg.steps, rules=("simple",))
        fine = run_simulation(fine_job, workers)["simple"][0]
        reference = [laplace_from_times(fine, lam)[0] for lam in cfg.lambda_list]
    for lam, ref in zip(cfg.lambda_list, reference):
        if ref == 0.0:
            raise NoHitsError(f"reference transform at lambda={lam:g} is 0, so the relative errors are undefined")
    times = run_simulation(job, workers)
    rows = []
    for lam, ref in zip(cfg.lambda_list, reference):
        row = [lam, ref]
        for name in RULES:
            value = laplace_from_times(times[name][0], lam)[0]
            row += [value, 100.0 * abs(value - ref) / ref]
        rows.append(row)
    write_csv(
        out_dir / "bridge_compare.csv",
        ["lambda", "reference_or_fine", "simple", "simple_err_pct", "bridge", "bridge_err_pct"],
        rows,
    )
    return ["bridge_compare.csv"]


def cmd_rate(cfg: RunConfig, workers: int, out_dir: Path) -> list[str]:
    """Gap-vs-(H - 1/2) regression per lambda -> rate.csv and fig1_data.csv.

    fig1_data.csv holds, per lambda, a `point` row (gap, se) per H above
    1/2 and the fitted line's two endpoints, x = 0 and x = max(H - 1/2).
    All H values share the same Gaussian draws (the increment stream is
    keyed by path index alone), so `se` is the standard error of the
    per-path differences against the H = 1/2 row, far below what
    independent runs would give; the log-log fit's 2-SE drop rule reads it.
    """
    h_above = [hv for hv in cfg.hurst_list if hv > 0.5]
    if 0.5 not in cfg.hurst_list or len(h_above) < 3:
        raise ConfigError("rate needs hurst_list to contain 0.5 plus at least three larger values")
    name = "simple" if cfg.estimator == "both" else cfg.estimator
    times = run_simulation(_job(cfg, rules=(name,)), workers)[name]
    brownian = times[cfg.hurst_list.index(0.5)]
    above = [t for hv, t in zip(cfg.hurst_list, times) if hv > 0.5]

    rate_rows = []
    fig_rows = []
    xs = [hv - 0.5 for hv in h_above]
    for lam in cfg.lambda_list:
        gaps, ses = zip(*(gap_estimate(t, brownian, lam) for t in above))
        fit = linear_fit(xs, gaps)
        try:
            beta = rate_exponent(h_above, gaps, ses).slope
        except ValueError as exc:
            raise NoHitsError(f"log-log exponent fit failed for lambda={lam:g}: {exc}") from exc
        rate_rows.append([lam, fit.slope, fit.intercept, fit.r_squared, beta])
        fig_rows += [["point", lam, x, gap, se] for x, gap, se in zip(xs, gaps, ses)]
        fig_rows += [["line", lam, x, fit.intercept + fit.slope * x, ""] for x in (0.0, max(xs))]

    write_csv(out_dir / "rate.csv", ["lambda", "slope", "intercept", "r_squared", "beta_hat"], rate_rows)
    write_csv(out_dir / "fig1_data.csv", ["kind", "lambda", "x", "y", "se"], fig_rows)
    return ["rate.csv", "fig1_data.csv"]


def cmd_density(cfg: RunConfig, workers: int, out_dir: Path) -> list[str]:
    """Hit-time histogram per Hurst value -> density_H{value}.csv.

    Each file is named by the exact H, its shortest round-tripping repr
    (density_H0.5.csv, density_H0.5000001.csv), so distinct H values never
    share a file.  Bridge-corrected times are used unless the estimator is
    explicitly `simple`; the plain rule's systematic late-crossing bias is
    visible at histogram resolution.
    """
    _check_fits_in_memory(HISTOGRAM_BYTES_PER_BIN * cfg.hist_bins, "use fewer histogram bins")
    outputs = [f"density_H{hv!r}.csv" for hv in cfg.hurst_list]
    name = "simple" if cfg.estimator == "simple" else "bridge"
    for filename, times in zip(outputs, run_simulation(_job(cfg, rules=(name,)), workers)[name]):
        edges, mass = density_from_times(times, cfg.horizon, cfg.hist_bins)
        rows = zip(edges[:-1], edges[1:], mass)
        write_csv(out_dir / filename, ["bin_left", "bin_right", "density"], rows)
    return outputs


def _grid_index(t: float, horizon: float, steps: int) -> int:
    """Largest index n of the grid of `steps` intervals on [0, horizon] with
    n * (horizon / steps) <= t (tolerating roundoff)."""
    if not 0.0 <= t <= horizon * (1.0 + 1e-12):
        raise ValueError(f"time {t} outside [0, {horizon}]")
    return min(int(np.floor(t / (horizon / steps) + 1e-9)), steps)


def cmd_conjecture(cfg: RunConfig, workers: int, out_dir: Path) -> list[str]:
    """Truncated argmax moments over the r windows -> conjecture.csv.

    Each H row group carries the OLS trend of moment against r and its
    standard error.  That error is the residual SE of the fit through the
    few (r, moment) points, not a Monte Carlo sampling error, so a slope
    within it of zero does not show that the moments stay bounded.  Nor
    are the moments flat at H = 1/2: with the default p and eta, the
    exact Brownian values (by quadrature of the joint law of the maximum
    and its location) grow, 0.5711, 0.7310 and 0.9094 at r = 5, 10 and 20.
    The paths are raw fBm started at zero: the model options (x0,
    threshold, drift, diffusion) do not apply here, and a warning names
    any of them that is set away from its default.  Every r must lie
    between one grid step and the horizon: a shorter window holds only
    t = 0, so its moment would be 0 by construction.
    """
    default = RunConfig()
    model = ("x0", "threshold", "drift", "diffusion")
    ignored = [f"--{name}" for name in model if getattr(cfg, name) != getattr(default, name)]
    if ignored:
        logger.warning("conjecture simulates raw fBm from zero; ignoring %s", ", ".join(ignored))
    indices = []
    for r in cfg.r_list:
        if r > cfg.horizon:
            raise ConfigError(f"r={r:g} exceeds the horizon {cfg.horizon:g}")
        indices.append(_grid_index(r, cfg.horizon, cfg.steps))
        if not indices[-1]:
            step = cfg.horizon / cfg.steps
            raise ConfigError(f"r={r:g} is shorter than one grid step {step:g}; its window holds only t = 0")
    job = _job(cfg, x0=0.0, drift="zero", diffusion="one", rules=(), extreme_indices=tuple(indices))
    out = run_simulation(job, workers)
    rows = []
    for hv, sups, argmax_times in zip(cfg.hurst_list, out["sup_values"], out["argmax_times"]):
        triples = truncated_argmax_moments(sups, argmax_times, cfg.r_list, hv * cfg.p, cfg.eta)
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

def run_selftest() -> list[tuple[str, bool, str]]:
    """Built-in invariant battery; returns (name, passed, detail) triples.

    Statistical checks run on fixed internal seeds and the censoring bound
    on RunConfig's defaults, so a correct build always reports the same,
    whatever the run's configuration.  The sampler checks read the paths
    that run_simulation makes, every grid column through marginal_indices.
    """
    checks: list[tuple[str, bool, str]] = []

    def record(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append((name, bool(ok), detail))

    def flat_spectrum():
        spectrum = circulant_spectrum(0.5, 1.0, 256)
        dev = float(np.max(np.abs(spectrum - 1.0 / 256)))
        return dev < 1e-12, f"max |eigenvalue - step| = {dev:.3g} (limit 1e-12)"

    def runner_paths(h, horizon, steps, samples):
        """The runner's first `samples` pure fBm paths at H, every grid column, as a (samples, steps + 1) array."""
        job = SimulationJob(hurst=(h,), horizon=horizon, steps=steps, samples=samples, master_seed=1729,
                            rules=(), marginal_indices=tuple(range(steps + 1)))
        return run_simulation(job)["marginals"][0]

    def lag_z(rows, lag, ref):
        """|z| of the mean lag-`lag` product of the rows against `ref`, with rows as blocks."""
        stop = rows.shape[1] - lag
        block_means = (rows[:, :stop] * rows[:, lag : lag + stop]).mean(axis=1)
        se = block_means.std(ddof=1) / math.sqrt(len(block_means))
        return abs(block_means.mean() - ref) / se

    def increment_autocov():
        rows = np.diff(runner_paths(0.7, 256.0, 256, 4000), axis=1)  # unit step keeps the lags O(1)
        worst = max(lag_z(rows, lag, fgn_autocovariance(0.7, lag, 1.0)) for lag in range(6))
        return worst < 5.0, f"worst |z| over lags 0..5 = {worst:.2f} (limit 5)"

    def terminal_law():
        from scipy.stats import kstest

        # at T = 1 the law N(0, T^(2H)) would be N(0, 1) for every H
        terminal = runner_paths(0.8, 256.0, 128, 1500)[:, -1]
        pvalue = float(kstest(terminal, "norm", args=(0.0, 256.0**0.8)).pvalue)
        return pvalue > 0.001, f"terminal-value KS p = {pvalue:.4f} against N(0, T^(2H)) at T = 256 (limit 0.001)"

    def independent_increments():
        z = lag_z(np.diff(runner_paths(0.5, 1024.0, 1024, 400), axis=1), 1, 0.0)
        return z < 5.0, f"lag-1 product |z| = {z:.2f} (limit 5)"

    def bridge_dominance():
        job = SimulationJob(hurst=(0.6,), horizon=10.0, steps=1024, samples=400, master_seed=777, rules=RULES)
        out = run_simulation(job)
        simple, bridge = out["simple"][0], out["bridge"][0]
        finite = np.isfinite(simple)
        ok = bool(np.all(bridge <= simple + 1e-12))
        early = int((bridge[finite] < simple[finite]).sum())
        return ok, f"bridge time <= plain time on all 400 paths ({early} strictly earlier)"

    def euler_zero_drift():
        path = runner_paths(0.6, 5.0, 512, 1)
        solved = affine_euler(path.copy(), 0.0, 0.0, 5.0 / 512)
        ok = solved.tobytes() == path.tobytes()
        return ok, "zero-drift Euler output equals the runner's path bit for bit"

    def laplace_generator():
        lam, h = 1.7, 1e-4
        worst = 0.0
        for x in (0.0, 0.3, 0.6):
            up = laplace_bm(lam, x + h, 1.0)
            mid = laplace_bm(lam, x, 1.0)
            down = laplace_bm(lam, x - h, 1.0)
            worst = max(worst, abs(0.5 * (up - 2.0 * mid + down) / h**2 - lam * mid))
        return worst < 1e-4, f"max |L''/2 - lambda L| = {worst:.3g} (limit 1e-4)"

    def censoring_weight():
        default = RunConfig()
        bound = math.exp(-min(default.lambda_list) * default.horizon)
        return bound < 1e-6, f"max weight of a censored path = {bound:.3g} (limit 1e-6)"

    record("flat_spectrum_at_h_half", flat_spectrum)
    record("increment_autocovariance", increment_autocov)
    record("terminal_value_ks", terminal_law)
    record("brownian_increment_independence", independent_increments)
    record("bridge_dominance", bridge_dominance)
    record("euler_zero_drift_exact", euler_zero_drift)
    record("laplace_reference_ode", laplace_generator)
    record("censoring_weight_bound", censoring_weight)
    return checks


def _format_selftest(checks: list[tuple[str, bool, str]]) -> str:
    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in checks]
    failed = [name for name, ok, _ in checks if not ok]
    lines.append(f"selftest: {len(checks) - len(failed)} passed, {len(failed)} failed")
    if failed:
        lines.append("failed checks: " + ", ".join(failed))
    return "\n".join(lines)


def cmd_selftest(cfg: RunConfig, workers: int, out_dir: Path) -> list[str]:
    checks = run_selftest()
    report = _format_selftest(checks)
    print(report)
    with _output(out_dir / "selftest_report.txt") as fh:
        fh.write(report + "\n")
    if any(not ok for _, ok, _ in checks):
        raise _SelftestFailure()
    return ["selftest_report.txt"]


class _SelftestFailure(Exception):
    """Internal signal: report already printed, exit with code 1."""


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# subcommand name -> (function, help text)
_COMMANDS = {
    "simulate": (cmd_simulate, "estimate hit-time Laplace transforms over the H and lambda grids"),
    "bridge-compare": (cmd_bridge_compare, "compare plain and bridge-corrected estimators against a reference"),
    "rate": (cmd_rate, "regress the transform gap on H - 1/2 and fit its log-log exponent"),
    "density": (cmd_density, "histogram hit times for each Hurst value"),
    "conjecture": (cmd_conjecture, "truncated argmax moments over several windows"),
    "selftest": (cmd_selftest, "run built-in statistical and analytic invariant checks"),
}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count, at least 1 and capped at the work to share and the CPUs this process may run on; "
        "a serial run with a spare CPU and at least 2^11 steps also shares its work with one helper thread; "
        "results do not depend on it",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"full reference scale: steps={FULL_SCALE_STEPS}, samples={FULL_SCALE_SAMPLES} "
        "(explicit --steps/--samples still win)",
    )
    # config-field options default to None so explicit flags are detectable
    for option in fields(RunConfig):
        flag = "--" + option.name.replace("_", "-")
        parser.add_argument(flag, dest=option.name, type=_VALUE_PARSERS[option.type], **option.metadata)


class _ArgumentParser(argparse.ArgumentParser):
    """Reads `--flag -1e-05` as `--flag=-1e-05`: argparse takes a token that
    starts with '-' for an option name unless it is a plain decimal."""

    def parse_known_args(self, args=None, namespace=None):
        tokens: list[str] = []
        for token in sys.argv[1:] if args is None else args:
            if tokens and re.fullmatch(r"--[^=]+", tokens[-1]) and re.match(r"-([\d.]|inf|nan)", token, re.I):
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)

    def error(self, message):
        """Print one `error: <message>` line on stderr, with no usage block, and exit 2."""
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fbmpassage",
        description="Exact fBm synthesis and first-passage Laplace transform experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        _add_common_options(sub)
    return parser


def main(argv=None) -> int:
    package = logging.getLogger(__package__)
    if not package.handlers:  # the package's warnings reach stderr once, however often main runs
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("warning: %(message)s"))
        package.addHandler(handler)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 after -h or --version, else 2
        return exc.code
    try:
        cfg = resolve_config(args)
        if args.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {args.workers}")
        out_dir = Path(cfg.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        command, _ = _COMMANDS[args.command]
        outputs = command(cfg, args.workers, out_dir)
        write_manifest(out_dir, args.command, cfg, outputs)
        return 0
    except _SelftestFailure:
        return 1
    except (ConfigError, MemoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmbeddingError, PropagationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NoHitsError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return 4
