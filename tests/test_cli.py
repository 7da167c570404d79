"""Command-line harness.

Covers config parsing and precedence, validation, exit codes, output file
schemas, the run manifest, worker-count independence of the written files,
warnings on model runs and their once-per-run `warning:` lines on stderr,
the modules a CLI import loads and its cap on BLAS threads, and the
statistical checks pinned to CLI output at its default desk scale.
"""

import contextlib
import csv
import dataclasses
import io
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, norm

import fbmpassage
from fbmpassage import fgn_autocovariance, laplace_bm, runner
from fbmpassage.sde import affine_coefficients
from fbmpassage.cli import (
    CONFIG_MAX_BYTES,
    ESTIMATOR_CHOICES,
    ConfigError,
    RunConfig,
    _parse_floats,
    build_parser,
    load_config_file,
    main,
    resolve_config,
    run_selftest,
    validate_config,
)

SELFTEST_NAMES = [
    "flat_spectrum_at_h_half",
    "increment_autocovariance",
    "terminal_value_ks",
    "brownian_increment_independence",
    "bridge_dominance",
    "euler_zero_drift_exact",
    "laplace_reference_ode",
    "censoring_weight_bound",
]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_floats():
    assert _parse_floats("1,2 3") == (1.0, 2.0, 3.0)
    assert _parse_floats("0.5") == (0.5,)
    with pytest.raises(ValueError):
        _parse_floats("   ")


def test_load_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "samples = 300   # trailing comment\n"
        "hurst_list = 0.5, 0.6\n"
        "estimator = simple\n"
    )
    values = load_config_file(cfg)
    assert values == {
        "samples": 300,
        "hurst_list": (0.5, 0.6),
        "estimator": "simple",
    }


def test_load_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("samples = 300\nturbo = yes\n")
    with pytest.raises(ConfigError, match=r"a\.cfg:2.*unknown key"):
        load_config_file(bad_key)

    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("samples = many\n")
    with pytest.raises(ConfigError, match=r"b\.cfg:1.*bad value"):
        load_config_file(bad_value)

    no_eq = tmp_path / "c.cfg"
    no_eq.write_text("samples\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:1"):
        load_config_file(no_eq)

    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(tmp_path / "missing.cfg")


def test_config_fifo_with_no_writer_exits_at_once(tmp_path):
    """A blocking open would wait for a writer forever; the timeout keeps that from hanging the suite."""
    fifo = tmp_path / "run.cfg"
    os.mkfifo(fifo)
    src = str(Path(fbmpassage.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "fbmpassage", "simulate", "--config", str(fifo), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=5)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"error: config file {fifo} is a FIFO with no writer, or an empty pipe"]


def test_config_fifo_whose_writer_is_open_loads(tmp_path):
    fifo = tmp_path / "run.cfg"
    os.mkfifo(fifo)
    writer = os.open(fifo, os.O_RDWR)  # open for writing before the load; O_RDWR waits for no reader

    def write():
        time.sleep(0.1)
        os.write(writer, b"seed = 7\n")
        os.close(writer)

    thread = threading.Thread(target=write)
    thread.start()
    try:
        assert load_config_file(fifo) == {"seed": 7}
    finally:
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_empty_config_file_means_the_defaults(tmp_path):
    empty = tmp_path / "run.cfg"
    empty.write_bytes(b"")
    assert resolve_config(build_parser().parse_args(["simulate", "--config", str(empty)])) == RunConfig()


def test_flag_overrides_file_overrides_default(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("samples = 300\nseed = 5\n")
    parser = build_parser()
    args = parser.parse_args(["simulate", "--config", str(cfg_file), "--seed", "9"])
    cfg = resolve_config(args)
    assert cfg.seed == 9  # explicit flag beats the file
    assert cfg.samples == 300  # file beats the default
    assert cfg.steps == 2**14  # untouched default


# Value texts by RunConfig annotation: canonical forms with no surrounding
# blanks and no '#', which a config file strips and a flag keeps.  Each
# strategy mixes arbitrary values with ones that pass validation.
_FLOAT = st.one_of(st.floats(allow_nan=False), st.floats(-5.0, 5.0))
_VALUE_TEXTS = {
    "int": st.one_of(st.integers(-(2**70), 2**70), st.integers(1, 14).map(lambda k: 2**k)).map(str),
    "float": _FLOAT.map(repr),
    "tuple[float, ...]": st.lists(st.one_of(_FLOAT, st.floats(0.5, 0.99)), max_size=4).map(
        lambda xs: ", ".join(map(repr, xs))
    ),
    "str": st.one_of(
        st.sampled_from(["simple", "bridge", "both", "zero", "ou:1", "linear:0.5,1", "one", "const:2"]),
        st.text("abcdefghijklmnopqrstuvwxyz0123456789:,.-=/", min_size=1, max_size=12),
    ),
}


def _resolve_or_reject(argv):
    """The RunConfig that argv resolves to, or "rejected" for a usage or config error."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return resolve_config(build_parser().parse_args(argv))
    except (ConfigError, SystemExit):
        return "rejected"


@settings(deadline=None)  # the host's speed can shift 2x within a minute
@given(st.data())
def test_config_key_and_flag_resolve_alike(data):
    option = data.draw(st.sampled_from(dataclasses.fields(RunConfig)))
    text = data.draw(_VALUE_TEXTS[option.type])
    flag = "--" + option.name.replace("_", "-")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(f"{option.name} = {text}\n")
        from_file = _resolve_or_reject(["simulate", "--config", str(path)])
    assert _resolve_or_reject(["simulate", f"{flag}={text}"]) == from_file
    # a number is also read as a separate token, "-1e-05" and "-inf" included
    if option.type != "str":
        assert _resolve_or_reject(["simulate", flag, text]) == from_file


def test_negative_flag_value_in_exponent_form(capsys, tmp_path):
    for text in ("-1e-05", "-1E-3"):
        assert resolve_config(build_parser().parse_args(["simulate", "--x0", text])).x0 == float(text)
    assert main(["simulate", "--x0", "-inf", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: x0 must be below threshold, got x0=-inf")


def test_flag_value_of_two_dashes_reads_as_the_text(capsys, tmp_path):
    """argparse stores "--name=--" as an empty list; it reads as "--", as the key does in a config file."""
    assert resolve_config(build_parser().parse_args(["simulate", "--out=--"])).out == "--"
    for flag in ("--drift=--", "--seed=--", "--hurst-list=--"):
        assert main(["simulate", flag, "--out", str(tmp_path / "o")]) == 2, flag
        assert capsys.readouterr().err.startswith("error:"), flag


_CONFIG_LINES = [b"samples = 300", b"hurst_list = 0.5, 0.6", b"# comment", b"", b"seed=7", b"steps = x", b"\xff\xfe = 1"]


@settings(deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=24), st.sampled_from(_CONFIG_LINES)), max_size=6))
def test_load_config_file_raises_only_config_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_bytes(b"\n".join(lines))
        try:
            values = load_config_file(path)
        except ConfigError:
            return
    assert set(values) <= {option.name for option in dataclasses.fields(RunConfig)}


def test_paper_scale_flag():
    parser = build_parser()
    cfg = resolve_config(parser.parse_args(["simulate", "--paper-scale"]))
    assert cfg.steps == 2**16
    assert cfg.samples == 100_000
    cfg2 = resolve_config(
        parser.parse_args(["simulate", "--paper-scale", "--samples", "200"])
    )
    assert cfg2.samples == 200  # explicit flag still wins
    assert cfg2.steps == 2**16


@pytest.mark.parametrize(
    "override",
    [
        {"samples": 50},
        {"steps": 1000},
        {"steps": 1},
        {"hurst_list": (0.4,)},
        {"hurst_list": (1.0,)},
        {"hurst_list": ()},
        {"lambda_list": (-1.0,)},
        {"x0": 1.0},
        {"estimator": "typo"},
        {"drift": "warp:9"},
        {"p": 2.0},
        {"p": 3.5},
        {"eta": -0.1},
        {"r_list": ()},
        {"hist_bins": 1},
        {"seed": -1},
        {"horizon": 0.0},
        {"horizon": 1e300, "steps": 2},  # step^(2H) overflows from H = 0.52 on
        {"horizon": 1e-300, "steps": 2**20},  # step^(2H) underflows to zero
        {"horizon": 1e302, "steps": 2, "hurst_list": (0.51,)},  # 2 (64 horizon^H)^2 overflows
        {"threshold": 1e200},  # 2 (threshold - x0)^2 overflows
        {"diffusion": "const:1e-300"},  # the reduced level (threshold - x0) / s overflows
        {"horizon": 1e-300, "steps": 2, "hurst_list": (0.516,)},  # 2 / step^(2H) overflows
        {"lambda_list": (1e307,)},  # lambda * 2 horizon overflows
        {"r_list": (5.0, 5.0)},  # a repeated window leaves the trend fit degenerate
        {"lambda_list": (1.0, 1.0)},  # a repeated lambda would write every laplace.csv row twice
    ],
)
def test_validate_config_rejects(override):
    cfg = dataclasses.replace(RunConfig(), **override)
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_config_accepts_defaults():
    validate_config(RunConfig())


def _reference_validate_config(cfg):
    """validate_config as it was with one hand-written loop per list option
    and a quadratic repeat test: the reference for messages and fault order."""

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
    step = cfg.horizon / cfg.steps
    variances = []
    for i, h in enumerate(cfg.hurst_list):
        if not 0.5 <= h < 1.0:
            fail(f"every Hurst value must lie in [0.5, 1), got {h}")
        if h in cfg.hurst_list[i + 1 :]:
            fail(f"hurst_list repeats H={h!r}")
        try:
            variance = step ** (2.0 * h)
        except OverflowError:
            variance = math.inf
        if not (math.isfinite(variance) and variance > 0):
            fail(f"(horizon/steps)^(2H) must be positive and finite, got {variance} for step {step:g} and H={h}")
        variances.append(variance)
    if not cfg.lambda_list:
        fail("lambda_list must not be empty")
    for i, lam in enumerate(cfg.lambda_list):
        if not (math.isfinite(lam) and lam > 0):
            fail(f"every lambda must be a positive real, got {lam}")
        if lam in cfg.lambda_list[i + 1 :]:
            fail(f"lambda_list repeats lambda={lam!r}")
    if not (math.isfinite(cfg.x0) and math.isfinite(cfg.threshold) and cfg.x0 < cfg.threshold):
        fail(f"x0 must be below threshold, got x0={cfg.x0}, threshold={cfg.threshold}")
    if cfg.estimator not in ESTIMATOR_CHOICES:
        fail(f"estimator must be one of {ESTIMATOR_CHOICES}, got {cfg.estimator!r}")
    try:
        _, _, s = affine_coefficients(cfg.drift, cfg.diffusion)
    except ValueError as exc:
        fail(str(exc))
    scale = (cfg.threshold - cfg.x0) / s + 64.0 * max(cfg.horizon**h for h in cfg.hurst_list)
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
    if not cfg.r_list:
        fail("r_list must not be empty")
    for i, r in enumerate(cfg.r_list):
        if not (math.isfinite(r) and r > 0):
            fail(f"every r must be a positive real, got {r}")
        if r in cfg.r_list[i + 1 :]:
            fail(f"r_list repeats r={r!r}")
    if not cfg.out:
        fail("out must name a directory")


def _outcome(check, cfg):
    """None if `check` accepts cfg, else the ConfigError message."""
    try:
        check(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


def test_validate_config_keeps_every_list_message_and_fault_order():
    rng = np.random.default_rng(3030)
    nan = math.nan  # one object: `in` and a Counter both match it by identity
    # each pool holds valid entries, then out-of-range ones, +-0.0, nan (shared and fresh) and +-inf
    pools = {
        "hurst_list": ([0.5, 0.51, 0.6, 0.75, 0.99], [0.49, 1.0, 1.5, 0.0, -0.0, nan, math.inf, -math.inf]),
        "lambda_list": ([1.0, 2.0, 3.5, 1e-300, 1e307], [0.0, -0.0, -1.0, nan, math.inf, -math.inf]),
        "r_list": ([5.0, 10.0, 20.0, 1e-3], [0.0, -0.0, -2.0, nan, math.inf, -math.inf]),
    }
    # the step^(2H) test and the scale guards fire on the extreme grids
    grids = [(20.0, 2**14), (1e300, 2), (1e302, 2), (1e-300, 2**20), (1e-300, 2), (1.0, 2)]
    outcomes = []
    for _ in range(3000):
        horizon, steps = grids[rng.integers(len(grids))]
        override = {"horizon": horizon, "steps": steps}
        for name, (valid, invalid) in pools.items():
            pool = valid if rng.random() < 0.5 else valid + invalid
            # a few distinct candidates drawn with replacement make repeats common
            candidates = [pool[i] for i in rng.choice(len(pool), size=rng.integers(1, 4), replace=False)]
            entries = [candidates[i] for i in rng.integers(len(candidates), size=rng.integers(0, 7))]
            # half of the nan entries are fresh objects, which no identity test matches
            override[name] = tuple(float("nan") if x != x and rng.random() < 0.5 else x for x in entries)
        if rng.random() < 0.1:
            override["threshold"] = -1.0  # a later fault behind valid lists
        cfg = dataclasses.replace(RunConfig(), **override)
        expected = _outcome(_reference_validate_config, cfg)
        assert _outcome(validate_config, cfg) == expected, override
        outcomes.append(expected)
    # every kind of outcome turned up
    for fragment in ("must not be empty", "repeats H=", "repeats lambda=", "repeats r=", "every Hurst value",
                     "every lambda", "every r", "(horizon/steps)^(2H)", "x0 must be below", "path scale"):
        assert any(o is not None and fragment in o for o in outcomes), fragment
    assert None in outcomes


def test_validate_config_repeat_test_is_linear():
    distinct = tuple(1.0 + k for k in range(10**5))
    start = time.perf_counter()
    validate_config(dataclasses.replace(RunConfig(), lambda_list=distinct))
    assert time.perf_counter() - start < 10.0
    with pytest.raises(ConfigError, match=r"^lambda_list repeats lambda=5\.0$"):
        validate_config(dataclasses.replace(RunConfig(), lambda_list=(*distinct, 5.0)))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_usage_errors(capsys, monkeypatch, tmp_path):
    # argparse's usage errors print one error line and no usage block
    for argv in (
        ["simulate", "--bogus"],
        ["simulate", "--workers", "x"],
        ["simulate", "--estimator", "foo"],
        [],  # no COMMAND
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "usage:" not in err, argv
    assert main(["simulate", "--hurst-list="]) == 2
    assert capsys.readouterr().err == "error: argument --hurst-list: invalid float list value: ''\n"
    assert main(["--version"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("fbmpassage ") and err == ""
    assert main(["-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: fbmpassage") and err == ""
    assert main(["simulate", "--samples", "50", "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err
    for value in ("0", "-3"):
        assert main(["simulate", "--workers", value, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")
    # the runner alone sizes a run's chunks
    assert main(["simulate", "--chunk-pairs", "4", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: --chunk-pairs")
    argv = ["simulate", "--samples", "100", "--steps", "2", "--horizon", "1e300"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    not_utf8 = tmp_path / "bytes.cfg"
    not_utf8.write_bytes(b"samples = 300\n\xff\xfe = 1\n")
    assert main(["simulate", "--config", str(not_utf8), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    assert main(["simulate", "--samples", "100", "--steps", "16", "--out", str(occupied)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # an output file that cannot be written: one error line, not a traceback and exit 1
    monkeypatch.setattr(fbmpassage.cli, "run_selftest", lambda: [("quick", True, "patched")])
    for command, blocked in (("simulate", "laplace.csv"), ("simulate", "run_manifest.json"),
                             ("selftest", "selftest_report.txt")):
        out = tmp_path / f"blocked-{blocked}"
        (out / blocked).mkdir(parents=True)
        assert main([command, "--samples", "100", "--steps", "16", "--out", str(out)]) == 2, blocked
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / blocked}:") and err.count("\n") == 1, err
    # a config file longer than the cap is refused, however valid its lines
    long_config = tmp_path / "long.cfg"
    long_config.write_text("samples = 100\n" + "#" * 99 + "\n" + ("#" * 1023 + "\n") * 1024)
    assert long_config.stat().st_size > CONFIG_MAX_BYTES == 2**20
    assert main(["simulate", "--config", str(long_config), "--steps", "16", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: config file {long_config} exceeds the cap of 1048576 bytes (1 MiB)\n"
    # just inside the step^(2H) bound, the path scale still overflows the bridge test
    for horizon, hurst in (("1e302", "0.51"), ("1.7e308", "0.5")):
        argv = ["simulate", "--samples", "100", "--steps", "2", "--horizon", horizon, "--hurst-list", hurst]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way to the refusal
            assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_exit_code_run_too_large_for_memory(capsys, monkeypatch, tmp_path):
    def no_allocation(*args):
        raise AssertionError("an oversized run must be refused before it allocates")

    monkeypatch.setattr(runner, "_noise_scales", no_allocation)
    monkeypatch.setattr(runner, "_chunk_compute", no_allocation)
    out = ["--out", str(tmp_path / "o")]
    huge_grid = ["--steps", str(2**40)]
    for argv in (
        ["simulate", *huge_grid],
        ["bridge-compare", *huge_grid],
        ["rate", *huge_grid],
        ["density", *huge_grid],
        ["conjecture", *huge_grid],
        ["simulate", "--samples", str(10**12), "--steps", "16"],
        ["simulate", "--drift", "ou:1", "--samples", str(10**10), "--steps", "16"],  # too large at one pair
    ):
        assert main([*argv, *out]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "GiB" in err, argv
        assert err.rstrip().endswith("use fewer steps, samples or workers"), argv


def test_exit_code_histogram_too_large_for_memory(capsys, monkeypatch, tmp_path):
    def no_simulation(*args):
        raise AssertionError("an oversized histogram must be refused before any simulation")

    monkeypatch.setattr(fbmpassage.cli, "run_simulation", no_simulation)
    assert main(["density", "--hist-bins", str(10**11), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "GiB" in err and "histogram bins" in err


def test_density_files_named_by_exact_hurst(tmp_path):
    """H values equal to 6 significant digits still write one file each."""
    out = tmp_path / "o"
    argv = ["density", "--samples", "100", "--steps", "64", "--hurst-list", "0.5,0.5000001", "--out", str(out)]
    assert main(argv) == 0
    names = ["density_H0.5.csv", "density_H0.5000001.csv"]
    assert all((out / name).is_file() for name in names)
    assert json.loads((out / "run_manifest.json").read_text())["outputs"] == sorted(names)


def test_exit_code_repeated_hurst_values(capsys, monkeypatch, tmp_path):
    def no_simulation(*args):
        raise AssertionError("repeated H values must be refused before any simulation")

    monkeypatch.setattr(fbmpassage.cli, "run_simulation", no_simulation)
    for command in ("simulate", "rate", "density"):
        argv = [command, "--hurst-list", "0.5,0.6,0.52,0.54,0.5", "--out", str(tmp_path / "o")]
        assert main(argv) == 2, command
        err = capsys.readouterr().err
        assert err == "error: hurst_list repeats H=0.5\n", command


def test_exit_code_no_hits(capsys, tmp_path):
    code = main(
        [
            "density",
            "--hurst-list", "0.5",
            "--threshold", "50",
            "--horizon", "2",
            "--steps", "128",
            "--samples", "100",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 4
    assert "degenerate data:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "hurst, threshold, simulates",
    [("0.6", "200", True), ("0.5", "600", False)],
    ids=["fine-grid-all-censored", "closed-form-underflows"],
)
def test_exit_code_bridge_compare_zero_reference(capsys, monkeypatch, tmp_path, hurst, threshold, simulates):
    """A reference transform of 0 leaves the relative errors undefined: exit 4, not a traceback.

    A closed form of 0 is refused before any simulation.
    """

    def no_simulation(*args):
        raise AssertionError("a zero closed-form reference must be refused before any simulation")

    if not simulates:
        monkeypatch.setattr(fbmpassage.cli, "run_simulation", no_simulation)
    argv = [
        "bridge-compare",
        "--hurst-list", hurst,
        "--estimator", "both",
        "--steps", "64",
        "--samples", "100",
        "--horizon", "1",
        "--threshold", threshold,
        "--lambda-list", "1",
        "--out", str(tmp_path / "o"),
    ]
    assert main(argv) == 4
    assert "degenerate data:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "bridge_compare.csv").exists()


def test_exit_code_numerical_failure(capsys, tmp_path):
    argv = [
        "simulate",
        "--hurst-list", "0.5",
        "--drift", "linear:1e200,0",  # slope 1e200: explodes within a few steps
        "--horizon", "2",
        "--steps", "128",
        "--samples", "100",
        "--out", str(tmp_path / "o"),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_exit_code_subcommand_preconditions(capsys, tmp_path):
    out = str(tmp_path / "o")
    assert main(["rate", "--hurst-list", "0.5,0.6", "--out", out]) == 2
    assert main(["conjecture", "--r-list", "30", "--horizon", "20", "--out", out]) == 2
    # a window shorter than one grid step holds only t = 0: its moment is 0 by construction
    short = ["--steps", "1024", "--samples", "200", "--hurst-list", "0.5", "--r-list", "0.001,5"]
    assert main(["conjecture", *short, "--out", out]) == 2
    # a repeated window would leave the trend fit with degenerate x values
    repeated = ["--steps", "256", "--samples", "100", "--hurst-list", "0.5", "--r-list", "5,5"]
    assert main(["conjecture", *repeated, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4
    assert "r=0.001 is shorter than one grid step" in err
    assert "r_list repeats r=5.0" in err
    assert not (tmp_path / "o" / "conjecture.csv").exists()


# ---------------------------------------------------------------------------
# simulate: schema, manifest, worker independence
# ---------------------------------------------------------------------------

_SMALL_SIM = [
    "simulate",
    "--seed", "77",
    "--horizon", "10",
    "--steps", "1024",
    "--samples", "600",
    "--hurst-list", "0.5,0.6",
    "--lambda-list", "1,2",
]


def test_simulate_schema_and_manifest(tmp_path):
    out = tmp_path / "sim"
    assert main(_SMALL_SIM + ["--out", str(out)]) == 0
    job = fbmpassage.SimulationJob(
        hurst=(0.5, 0.6), horizon=10.0, steps=1024, samples=600, master_seed=77, rules=fbmpassage.RULES
    )
    censored = {
        (hv, name): int(count)
        for name, times in fbmpassage.run_simulation(job).items()
        for hv, count in zip((0.5, 0.6), np.isinf(times).sum(axis=1))
    }
    assert 0 < min(censored.values())

    rows = _read_csv(out / "laplace.csv")
    assert list(rows[0]) == [
        "H", "lambda", "estimator", "value", "std_error",
        "censored", "delta_vs_bm", "delta_se",
    ]
    assert len(rows) == 2 * 2 * 2  # H x lambda x estimator
    for row in rows:
        # 17-significant-digit cells parse back to the identical string
        for col in ("value", "std_error", "delta_vs_bm", "delta_se"):
            assert format(float(row[col]), ".17g") == row[col]
        # one count per (H, rule), the same for every lambda
        assert row["censored"] == str(censored[float(row["H"]), row["estimator"]])
        if row["H"] == "0.5":
            # H=1/2 is its own reference: every per-path difference is zero
            assert (float(row["delta_vs_bm"]), float(row["delta_se"])) == (0.0, 0.0)
        else:
            assert float(row["delta_vs_bm"]) > 0.0

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert set(manifest) == {"command", "config", "outputs", "versions"}
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == ["laplace.csv"]
    assert manifest["config"]["seed"] == 77
    assert manifest["config"]["hurst_list"] == [0.5, 0.6]
    assert set(manifest["versions"]) == {"fbmpassage", "numpy", "python", "scipy"}
    # runtime knobs must not leak into the record of what was computed
    assert "workers" not in manifest["config"]
    assert "chunk" not in (out / "run_manifest.json").read_text()


def test_simulate_without_half_gaps_against_the_closed_form(tmp_path):
    """With no H = 1/2 row, a pure model's gap is laplace_bm - value and
    carries the estimate's own standard error, bit for bit."""
    argv = ["simulate", "--hurst-list", "0.55,0.6", "--samples", "200", "--steps", "64", "--lambda-list", "1,2,3"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "laplace.csv")
    assert len(rows) == 2 * 3 * 2
    for row in rows:
        value = float(row["value"])
        assert float(row["delta_vs_bm"]) == laplace_bm(float(row["lambda"])) - value
        assert row["delta_se"] == row["std_error"]


@pytest.mark.parametrize("model", [["--drift", "linear:0,0"], ["--drift", "ou:0"], ["--diffusion", "const:1"]])
def test_pure_model_spellings_write_the_pure_bytes(tmp_path, model):
    """Zero drift and unit diffusion under another name get the closed-form
    reference: the same gap columns in laplace.csv and the same reference
    column in bridge_compare.csv as the default model."""
    small = ["--samples", "200", "--steps", "64"]
    for argv, filename in (
        (["simulate", "--hurst-list", "0.6", "--estimator", "simple", *small], "laplace.csv"),
        (["bridge-compare", "--hurst-list", "0.5", *small], "bridge_compare.csv"),
    ):
        assert main([*argv, "--out", str(tmp_path / "pure")]) == 0
        assert main([*argv, *model, "--out", str(tmp_path / "spelled")]) == 0
        pure = (tmp_path / "pure" / filename).read_bytes()
        assert "nan" not in pure.decode()
        assert (tmp_path / "spelled" / filename).read_bytes() == pure


@pytest.mark.parametrize(
    "argv, filename",
    [
        (["simulate", "--hurst-list", "0.6"], "laplace.csv"),
        (["simulate", "--hurst-list", "0.5,0.6"], "laplace.csv"),
        (["bridge-compare", "--hurst-list", "0.5"], "bridge_compare.csv"),
    ],
    ids=["simulate-closed-form", "simulate-paired", "bridge-compare"],
)
def test_constant_diffusion_writes_the_reduced_experiments_bytes(tmp_path, argv, filename):
    """Zero drift with diffusion 2 and threshold 1 is fBm run to 1/2, so it
    writes the bytes of the default model at threshold 0.5: the closed-form
    gaps and reference included, with no nan and no fine-grid reference."""
    small = ["--samples", "200", "--steps", "64"]
    assert main([*argv, *small, "--diffusion", "const:2", "--threshold", "1", "--out", str(tmp_path / "s2")]) == 0
    assert main([*argv, *small, "--threshold", "0.5", "--out", str(tmp_path / "reduced")]) == 0
    reduced = (tmp_path / "reduced" / filename).read_bytes()
    assert "nan" not in reduced.decode()
    assert (tmp_path / "s2" / filename).read_bytes() == reduced


@pytest.mark.parametrize("drift, simulations", [("zero", 1), ("ou:1", 2)])
def test_bridge_compare_simulates_a_reference_only_for_a_drifted_model(monkeypatch, tmp_path, drift, simulations):
    """At H = 1/2 with zero reduced drift the reference is the closed form at
    the reduced level (threshold - x0) / s, so only the coarse run is
    simulated; a drift keeps the fine-grid run."""
    jobs = []

    def counting(job, workers):
        jobs.append(job)
        return fbmpassage.run_simulation(job, workers)

    monkeypatch.setattr(fbmpassage.cli, "run_simulation", counting)
    argv = ["bridge-compare", "--hurst-list", "0.5", "--drift", drift, "--diffusion", "const:2"]
    assert main([*argv, "--samples", "200", "--steps", "64", "--out", str(tmp_path)]) == 0
    assert len(jobs) == simulations
    if simulations == 1:
        for row in _read_csv(tmp_path / "bridge_compare.csv"):
            lam = float(row["lambda"])
            assert float(row["reference_or_fine"]) == math.exp(-0.5 * math.sqrt(2.0 * lam))


def test_simulate_workers_do_not_change_files(pin_chunk, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_SMALL_SIM + ["--out", str(a), "--workers", "1"]) == 0
    pin_chunk(7)
    assert main(_SMALL_SIM + ["--out", str(b), "--workers", "3"]) == 0
    assert (a / "laplace.csv").read_bytes() == (b / "laplace.csv").read_bytes()
    ma = json.loads((a / "run_manifest.json").read_text())
    mb = json.loads((b / "run_manifest.json").read_text())
    ma["config"].pop("out"), mb["config"].pop("out")
    assert ma == mb


class _FakePool:
    """Records each pool the runner starts and runs its chunks inline."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("chunk_pairs, cpus, expected", [(7, 4, 4), (128, 4, 3), (7, 1, None)])
def test_worker_count_is_clamped_to_chunks_and_cpus(monkeypatch, pin_chunk, tmp_path, chunk_pairs, cpus, expected):
    monkeypatch.setattr(_FakePool, "started", [])
    monkeypatch.setattr(runner, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    pin_chunk(chunk_pairs)
    argv = _SMALL_SIM  # 300 pairs: 43 or 3 chunks
    assert main(argv + ["--workers", "100000", "--out", str(tmp_path / "many")]) == 0
    # one pool for every H value, sized min(workers, chunks, cpus); one worker runs serially
    assert _FakePool.started == ([] if expected is None else [expected])
    assert main(argv + ["--workers", "1", "--out", str(tmp_path / "one")]) == 0
    many, one = (tmp_path / d / "laplace.csv" for d in ("many", "one"))
    assert many.read_bytes() == one.read_bytes()


def test_conjecture_runs_in_zero_drift_default_chunks(monkeypatch, tmp_path):
    calls = []
    original = runner._chunk_compute

    def counting(job, first_pair, pairs, *draw):
        calls.append((first_pair, pairs))
        return original(job, first_pair, pairs, *draw)

    monkeypatch.setattr(runner, "_chunk_compute", counting)
    argv = [
        "conjecture", "--steps", "256", "--samples", "200", "--hurst-list", "0.5,0.6",
        "--r-list", "5,10",
    ]
    assert main(argv + ["--out", str(tmp_path / "default")]) == 0
    default_chunks = [(first, 4) for first in range(0, 100, 4)]
    assert calls == default_chunks  # 100 pairs in the zero-drift default of 4, one job for both H
    calls.clear()
    # conjecture ignores the model flags, so a drifted model keeps the zero-drift chunks
    assert main(argv + ["--drift", "ou:1", "--out", str(tmp_path / "drift")]) == 0
    assert calls == default_chunks
    default, drift = (tmp_path / d / "conjecture.csv" for d in ("default", "drift"))
    assert drift.read_bytes() == default.read_bytes()


def test_conjecture_warns_about_ignored_model_flags(caplog, tmp_path):
    argv = [
        "conjecture", "--steps", "256", "--samples", "100", "--hurst-list", "0.5",
        "--r-list", "5,10",
    ]
    with caplog.at_level(logging.WARNING, logger="fbmpassage.cli"):
        assert main(argv + ["--threshold", "1", "--x0", "0", "--out", str(tmp_path / "defaults")]) == 0
        assert not caplog.records  # model flags at their defaults are not ignored flags
        assert main(argv + ["--x0", "0.5", "--drift", "ou:1", "--out", str(tmp_path / "model")]) == 0
    (record,) = caplog.records
    assert "--x0" in record.message and "--drift" in record.message
    assert "--threshold" not in record.message and "--diffusion" not in record.message
    defaults, model = (tmp_path / d / "conjecture.csv" for d in ("defaults", "model"))
    assert defaults.read_bytes() == model.read_bytes()


def test_package_warnings_print_once_per_run_with_a_prefix(capsys, tmp_path):
    argv = [
        "rate", "--seed", "4", "--samples", "400", "--steps", "256", "--hurst-list", "0.5,0.501,0.6,0.7,0.8",
        "--lambda-list", "1",
    ]
    for run in ("first", "second"):  # one handler, however often main runs in a process
        assert main(argv + ["--out", str(tmp_path / run)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if "rate fit dropped" in line] == [
            "warning: rate fit dropped 1 gap(s) at H=[0.501] (non-positive or within 2 SE of zero)"
        ]


def test_constant_diffusion_run_logs_no_sde_warning(caplog, tmp_path):
    argv = [
        "simulate", "--diffusion", "const:2", "--samples", "200", "--steps", "1024",
        "--hurst-list", "0.5", "--out", str(tmp_path),
    ]
    with caplog.at_level(logging.WARNING):
        assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "fbmpassage.sde"] == []


@pytest.mark.parametrize("model", [[], ["--drift", "ou:1", "--diffusion", "const:2"]])
def test_rate_at_the_golden_config_drops_no_gap(capsys, tmp_path, model):
    """Paired standard errors leave every gap of test_golden.py's rate run,
    pure and OU, more than two errors above zero."""
    argv = [
        "rate", "--steps", "1024", "--hurst-list", "0.5,0.55,0.6,0.7", "--estimator", "simple", "--seed", "1729",
        "--horizon", "20", "--threshold", "1", "--samples", "600", "--lambda-list", "1,2,3", *model,
    ]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert "rate fit dropped" not in capsys.readouterr().err


def test_cli_import_loads_no_heavy_scipy_module():
    """scipy.stats loads only where a selftest check calls it, not on
    every CLI run; nothing in the package imports .linalg, .integrate or
    .interpolate."""
    src = str(Path(fbmpassage.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fbmpassage.cli; print(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    submodules = {m.split(".")[1] for m in loaded.stdout.split() if "." in m}
    assert submodules & {"stats", "integrate", "interpolate", "linalg"} == set()


def _fresh_import(module: str, blas_threads: str | None) -> dict:
    """In a fresh interpreter whose OPENBLAS_NUM_THREADS is `blas_threads` (None: unset),
    import `module` and report that variable, whether numpy loaded and the thread count."""
    src = str(Path(fbmpassage.__file__).resolve().parents[1])
    # built key by key: importing fbmpassage.cli in this process has set the variable here
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    code = (
        f"import json, os, sys, {module}; tasks = '/proc/self/task'; print(json.dumps({{"
        "'blas': os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy': 'numpy' in sys.modules,"
        "'threads': len(os.listdir(tasks)) if os.path.isdir(tasks) else None}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_cli_import_loads_blas_with_one_thread():
    """The command line loads OpenBLAS with no worker thread, which would spin through the import."""
    got = _fresh_import("fbmpassage.cli", None)
    assert got["blas"] == "1" and got["numpy"]
    if got["threads"] is not None:
        assert got["threads"] == 1


def test_cli_import_keeps_a_blas_thread_count_the_user_set():
    assert _fresh_import("fbmpassage.cli", "2")["blas"] == "2"


def test_package_import_loads_no_numpy_and_leaves_blas_threads_alone():
    got = _fresh_import("fbmpassage", None)
    assert got["blas"] is None and not got["numpy"]


# ---------------------------------------------------------------------------
# bridge-compare at the default desk scale
# ---------------------------------------------------------------------------

def test_bridge_compare_brownian_reference(tmp_path):
    out = tmp_path / "bc"
    assert main(["bridge-compare", "--hurst-list", "0.5", "--workers", "2", "--out", str(out)]) == 0
    rows = _read_csv(out / "bridge_compare.csv")
    assert list(rows[0]) == [
        "lambda", "reference_or_fine", "simple",
        "simple_err_pct", "bridge", "bridge_err_pct",
    ]
    assert [float(r["lambda"]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
    for row in rows:
        lam = float(row["lambda"])
        # at H=1/2 the reference column is the closed form, not a fine run
        assert float(row["reference_or_fine"]) == pytest.approx(
            laplace_bm(lam), rel=1e-12
        )
        assert 0.0 <= float(row["simple_err_pct"]) < 5.0
        assert 0.0 <= float(row["bridge_err_pct"]) < 5.0


@pytest.mark.parametrize("estimator", ["simple", "bridge"])
def test_bridge_compare_ignores_the_estimator(tmp_path, estimator):
    """bridge-compare runs both rules by definition, so a config shared with
    simulate may set any estimator."""
    argv = ["bridge-compare", "--hurst-list", "0.6", "--samples", "200", "--steps", "64"]
    assert main([*argv, "--estimator", "both", "--out", str(tmp_path / "both")]) == 0
    assert main([*argv, "--estimator", estimator, "--out", str(tmp_path / "one")]) == 0
    both, one = (tmp_path / d / "bridge_compare.csv" for d in ("both", "one"))
    assert one.read_bytes() == both.read_bytes()


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_rate_outputs(tmp_path):
    out = tmp_path / "rt"
    argv = ["rate", "--samples", "4000", "--steps", "4096", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0

    rate_rows = _read_csv(out / "rate.csv")
    assert list(rate_rows[0]) == ["lambda", "slope", "intercept", "r_squared", "beta_hat"]
    assert [float(r["lambda"]) for r in rate_rows] == [1.0, 2.0, 3.0, 4.0]
    for row in rate_rows:
        assert float(row["slope"]) > 0.0
        assert 0.0 < float(row["r_squared"]) <= 1.0
        assert np.isfinite(float(row["beta_hat"]))

    fig_rows = _read_csv(out / "fig1_data.csv")
    assert list(fig_rows[0]) == ["kind", "lambda", "x", "y", "se"]
    for lam in ("1", "2", "3", "4"):
        points = [r for r in fig_rows if r["kind"] == "point" and r["lambda"] == lam]
        line = [r for r in fig_rows if r["kind"] == "line" and r["lambda"] == lam]
        assert len(points) == 4  # one per H above 1/2 in the default list
        assert all(r["se"] == "" for r in line)
        # the fitted line's two endpoints, x = 0 and x = max(H - 1/2) = 0.1
        fit = next(r for r in rate_rows if float(r["lambda"]) == float(lam))
        assert [float(r["x"]) for r in line] == pytest.approx([0.0, 0.1], abs=1e-15)
        for r in line:
            x = float(r["x"])
            assert float(r["y"]) == float(fit["intercept"]) + float(fit["slope"]) * x

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"] == ["fig1_data.csv", "rate.csv"]  # sorted


# ---------------------------------------------------------------------------
# density at histogram scale: schema plus a distribution-level check
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def density_run(tmp_path_factory):
    """One bridge-rule histogram run at H = 1/2, large enough for a chi^2."""
    out = tmp_path_factory.mktemp("density")
    code = main(
        [
            "density",
            "--hurst-list", "0.5",
            "--samples", "100000",
            "--steps", "8192",
            "--seed", "555",
            "--workers", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def _brownian_passage_cdf(t):
    """P(max of standard BM over [0, t] >= 1), elementwise, with F(0) = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = 2.0 * (1.0 - norm.cdf(1.0 / np.sqrt(t[pos])))
    return out


def test_density_schema_and_bookkeeping(density_run):
    rows = _read_csv(density_run / "density_H0.5.csv")
    assert list(rows[0]) == ["bin_left", "bin_right", "density"]
    assert len(rows) == 200  # default bin count
    left = np.array([float(r["bin_left"]) for r in rows])
    right = np.array([float(r["bin_right"]) for r in rows])
    dens = np.array([float(r["density"]) for r in rows])
    assert left[0] == 0.0
    assert right[-1] == pytest.approx(10.0)  # window capped below the horizon
    assert np.allclose(left[1:], right[:-1])
    assert (dens >= 0.0).all()

    # heights times widths recover integer path counts over M samples
    m = 100_000
    counts = dens * (right - left) * m
    assert np.abs(counts - np.rint(counts)).max() < 1e-6
    frac_in_window = counts.sum() / m
    want = _brownian_passage_cdf(np.array([10.0]))[0]  # about 0.752
    assert frac_in_window == pytest.approx(want, abs=0.01)

    manifest = json.loads((density_run / "run_manifest.json").read_text())
    assert manifest["outputs"] == ["density_H0.5.csv"]


def test_density_matches_brownian_passage_law(density_run):
    """Pearson chi^2 of the written histogram against the exact level-1 law."""
    rows = _read_csv(density_run / "density_H0.5.csv")
    left = np.array([float(r["bin_left"]) for r in rows])
    right = np.array([float(r["bin_right"]) for r in rows])
    dens = np.array([float(r["density"]) for r in rows])
    m = 100_000
    counts = np.rint(dens * (right - left) * m)
    expected = (_brownian_passage_cdf(right) - _brownian_passage_cdf(left)) * m

    # merge adjacent bins until each cell expects >= 10 counts
    obs_g, exp_g = [], []
    o = e = 0.0
    for ob, ex in zip(counts, expected):
        o += ob
        e += ex
        if e >= 10.0:
            obs_g.append(o)
            exp_g.append(e)
            o = e = 0.0
    obs_g[-1] += o
    exp_g[-1] += e
    # one extra cell for everything outside the window (late hits + censored)
    obs_g.append(m - counts.sum())
    exp_g.append((1.0 - _brownian_passage_cdf(np.array([10.0]))[0]) * m)

    obs_g, exp_g = np.array(obs_g), np.array(exp_g)
    stat = float(((obs_g - exp_g) ** 2 / exp_g).sum())
    dof = len(obs_g) - 1
    pvalue = float(chi2.sf(stat, dof))
    print(f"density chi2 = {stat:.1f} on {dof} dof, p = {pvalue:.4f}")
    assert pvalue > 0.01


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes_and_writes_report(capsys, tmp_path):
    out = tmp_path / "st"
    assert main(["selftest", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "8 passed, 0 failed" in printed
    report = (out / "selftest_report.txt").read_text()
    assert report.count("[PASS]") == 8
    assert "[FAIL]" not in report
    for name in SELFTEST_NAMES:
        assert name in report
    # a run config whose censoring weight is far above 1e-6 leaves the report
    # as it is: the battery checks the default configuration
    custom = tmp_path / "custom"
    assert main(["selftest", "--horizon", "5", "--lambda-list", "0.1", "--out", str(custom)]) == 0
    assert (custom / "selftest_report.txt").read_text() == report


def test_selftest_catches_covariance_corruption(monkeypatch):
    """Swapping in a skewed reference autocovariance must trip exactly the
    increment-autocovariance check, proving the check has teeth."""

    def skewed(h, lag, step):
        base = fgn_autocovariance(h, lag, step)
        return base * 1.1 if lag == 1 else base

    monkeypatch.setattr(fbmpassage.cli, "fgn_autocovariance", skewed)
    checks = run_selftest()
    failed = [name for name, ok, _ in checks if not ok]
    assert failed == ["increment_autocovariance"]


def test_selftest_catches_a_wrong_hurst_in_the_terminal_law(monkeypatch):
    """Building the runner's spectrum at H + 0.05 for the terminal-law
    check's H alone must trip exactly that check: at its horizon of 256
    the law N(0, T^(2H)) depends on H."""
    exact = runner.circulant_spectrum

    def shifted(h, horizon, steps):
        return exact(h + 0.05 if h == 0.8 else h, horizon, steps)

    monkeypatch.setattr(runner, "circulant_spectrum", shifted)
    runner._noise_scales.cache_clear()
    try:
        checks = run_selftest()
    finally:
        runner._noise_scales.cache_clear()  # drop the scales built from the shifted spectrum
    failed = [name for name, ok, _ in checks if not ok]
    assert failed == ["terminal_value_ks"]
