"""End-to-end acceptance battery.

Each test prints one [PRIMARY nn] line with the measured numbers before
asserting, so a -rA run doubles as the acceptance report.  Scales are desk
scale throughout: minutes, not the full reference runs.

The truncated-argmax check (09) is expected to fail: at H = 1/2 the moment
being probed grows like r^(1/4) (root-level quadrature puts the values near
0.46 * r^(1/4)), so its trend over r = 5..20 is genuinely nonzero and the
flat-trend assertion cannot hold at any sample size.  It is asserted as
stated rather than weakened; the printed line carries the measured slope.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, norm

import fbmpassage as fp
from fbmpassage.cli import _grid_index, main
from reference_samplers import cholesky_fbm

SEED = 1729
LAMBDAS = (1.0, 2.0, 3.0, 4.0)
TABLE_BM = {1.0: 0.2431, 2.0: 0.1353, 3.0: 0.0863, 4.0: 0.0591}


def _report(num: int, claim: str, ok: bool, detail: str) -> None:
    print(f"[PRIMARY {num:02d}] {claim}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared desk-scale sweep: simple estimator over the H grid, T=20, N=2^14
# ---------------------------------------------------------------------------

H_SWEEP = (0.5, 0.51, 0.52, 0.54, 0.6)


def _job(hurst, steps, samples, **outputs):
    return fp.SimulationJob(hurst=hurst, horizon=20.0, steps=steps, samples=samples, master_seed=SEED, **outputs)


@pytest.fixture(scope="module")
def desk_sweep():
    """Plain-rule hit times per H, every H of the sweep in one job: per-path
    outputs do not depend on the grouping."""
    times = fp.run_simulation(_job(H_SWEEP, 2**14, 20_000), workers=2)["simple"]
    return dict(zip(H_SWEEP, times))


def _gaps(times, lam):
    """(gap, se) of the transform against the H = 1/2 row, per H above 1/2."""
    return {hv: fp.gap_estimate(times[hv], times[0.5], lam) for hv in H_SWEEP[1:]}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_brownian_laplace_closed_form():
    values = {lam: fp.laplace_bm(lam) for lam in LAMBDAS}
    dev = max(abs(values[lam] - TABLE_BM[lam]) for lam in LAMBDAS)
    ok = dev < 5e-5
    _report(1, "closed-form Brownian transform matches the reference to 4 dp",
            ok, f"max deviation {dev:.2e}")
    assert ok


def test_simple_estimator_error_band(desk_sweep):
    rels = {}
    bias_ok = True
    for lam in LAMBDAS:
        value, se = fp.laplace_from_times(desk_sweep[0.5], lam)
        ana = fp.laplace_bm(lam)
        bias_ok &= value - ana <= 3.0 * se
        rels[lam] = 100.0 * abs(value - ana) / ana
    band_ok = all(0.3 <= r <= 6.0 for r in rels.values())
    ok = bias_ok and band_ok
    detail = ", ".join(f"lam={lam:g}: {r:.2f}%" for lam, r in rels.items())
    _report(2, "plain estimator at H=1/2 under-reads the closed form by 0.3-6%",
            ok, detail)
    assert ok


def test_bridge_beats_simple_at_brownian_case():
    job = _job((0.5,), 2**13, 20_000, rules=fp.RULES)
    times = {name: t[0] for name, t in fp.run_simulation(job, workers=2).items()}
    wins = 0
    details = []
    for lam in LAMBDAS:
        ana = fp.laplace_bm(lam)
        rel_s = abs(fp.laplace_from_times(times["simple"], lam)[0] - ana) / ana
        rel_b = abs(fp.laplace_from_times(times["bridge"], lam)[0] - ana) / ana
        wins += rel_b < rel_s
        details.append(f"lam={lam:g}: bridge {100*rel_b:.2f}% vs simple {100*rel_s:.2f}%")
    ok = wins >= 3
    _report(3, "bridge rule beats the plain rule at H=1/2 in >=3 of 4 columns",
            ok, f"{wins}/4 wins; " + "; ".join(details))
    assert ok


def test_gap_magnitude_and_monotonicity(desk_sweep):
    gap06, _ = _gaps(desk_sweep, 1.0)[0.6]
    mag_ok = abs(gap06 - 0.0493) < 0.01
    mono_ok = True
    for lam in LAMBDAS:
        seq = [0.0] + [_gaps(desk_sweep, lam)[hv][0] for hv in H_SWEEP[1:]]
        mono_ok &= all(a < b for a, b in zip(seq, seq[1:]))
    ok = mag_ok and mono_ok
    _report(4, "transform gap at H=0.6, lam=1 near 0.0493 and growing in H",
            ok, f"gap {gap06:.5f}, strictly increasing in H: {mono_ok}")
    assert ok


def test_gap_growth_rate_fits(desk_sweep):
    gaps = _gaps(desk_sweep, 1.0)
    xs = [hv - 0.5 for hv in H_SWEEP[1:]]
    ys = [gaps[hv][0] for hv in H_SWEEP[1:]]
    fit = fp.linear_fit(xs, ys)
    beta = fp.rate_exponent(H_SWEEP[1:], ys).slope
    ok = fit.r_squared >= 0.95 and 0.6 <= beta <= 1.2
    _report(5, "gap vs H-1/2 is near-linear and its log-log exponent sits in [0.6, 1.2]",
            ok, f"R^2 {fit.r_squared:.4f}, exponent {beta:.3f}")
    assert ok


def test_sampler_agreement_and_autocovariance():
    horizon, steps = 256.0, 256
    results = []
    ok = True
    for hv, seed_c, seed_k in ((0.6, 101, 201), (0.8, 102, 202)):
        job = fp.SimulationJob(hurst=(hv,), horizon=horizon, steps=steps, samples=10_000, master_seed=seed_c,
                               rules=(), marginal_indices=tuple(range(steps + 1)))
        blocks = np.diff(fp.run_simulation(job)["marginals"][0], axis=1)
        rng_k = np.random.default_rng(seed_k)
        chol_T = np.array([cholesky_fbm(hv, horizon, steps, rng_k)[-1] for _ in range(10_000)])
        pvalue = float(ks_2samp(blocks.sum(axis=1), chol_T).pvalue)
        worst_z = 0.0
        for lag in range(6):
            per_block = (blocks[:, : steps - lag] * blocks[:, lag:]).mean(axis=1)
            se = per_block.std(ddof=1) / math.sqrt(len(per_block))
            ref = fp.fgn_autocovariance(hv, lag, horizon / steps)
            worst_z = max(worst_z, abs((per_block.mean() - ref) / se))
        ok &= pvalue > 0.01 and worst_z < 5.0
        results.append(f"H={hv:g}: KS p {pvalue:.3f}, worst lag |z| {worst_z:.2f}")
    _report(6, "runner's paths agree with the Cholesky oracle and the increment autocovariance",
            ok, "; ".join(results))
    assert ok


def test_marginals_under_envelope_and_gaussian():
    h = 0.7
    t_list = (0.5, 1.0, 5.0)
    job = fp.SimulationJob(
        hurst=(h,), horizon=8.0, steps=1024, samples=20_000, master_seed=4242,
        rules=(), marginal_indices=tuple(_grid_index(t, 8.0, 1024) for t in t_list),
    )
    marg = fp.run_simulation(job)["marginals"][0]
    ok = True
    details = []
    for j, t in enumerate(t_list):
        x = marg[:, j]
        sd = t**h
        edges = np.linspace(-3.8 * sd, 3.8 * sd, 39)
        counts, _ = np.histogram(x, bins=edges)
        widths = np.diff(edges)
        emp = counts / (len(x) * widths)
        mids = 0.5 * (edges[:-1] + edges[1:])
        env = norm.pdf(mids, scale=sd)
        # allow 3 binomial SEs of headroom per bin before calling a breach
        p_bin = env * widths
        rel_se = np.sqrt((1.0 - p_bin) / (len(x) * p_bin))
        env_ok = bool((emp <= env * (1.0 + 3.0 * rel_se)).all())

        qedges = norm.ppf(np.linspace(0.0, 1.0, 41), scale=sd)
        obs, _ = np.histogram(x, bins=qedges)
        stat = float(((obs - len(x) / 40) ** 2 / (len(x) / 40)).sum())
        crit = float(chi2.ppf(0.99, 39))
        ok &= env_ok and stat < crit
        details.append(f"t={t:g}: under envelope {env_ok}, chi2 {stat:.1f} < {crit:.1f}")
    _report(7, "fBm marginals stay below the Gaussian envelope and pass the exactness chi2",
            ok, "; ".join(details))
    assert ok


def test_gap_decay_in_lambda(desk_sweep):
    logs = [math.log(_gaps(desk_sweep, lam)[0.6][0]) for lam in LAMBDAS]
    roots = [math.sqrt(lam) for lam in LAMBDAS]
    decreasing = all(a > b for a, b in zip(logs, logs[1:]))
    fit = fp.linear_fit(roots, logs)
    alpha = -fit.slope / math.sqrt(2.0)
    ok = decreasing and fit.slope < 0.0 and alpha > 0.0
    _report(8, "log gap at H=0.6 falls along -alpha*sqrt(2*lambda) with alpha > 0",
            ok, f"slope {fit.slope:.3f}, alpha {alpha:.3f}, decreasing {decreasing}")
    assert ok


def test_truncated_argmax_moment_flat_trend():
    r_values = (5.0, 10.0, 20.0)
    indices = tuple(_grid_index(r, 20.0, 2**12) for r in r_values)
    # one job for both H values: the reported H = 0.6 row and the asserted H = 1/2 row
    job = _job((0.6, 0.5), 2**12, 10_000, rules=(), extreme_indices=indices)
    out = fp.run_simulation(job)
    report, triples = (
        fp.truncated_argmax_moments(sups, argmax_times, r_values, hv * 2.5, 0.1)
        for hv, sups, argmax_times in zip((0.6, 0.5), out["sup_values"], out["argmax_times"])
    )
    fit_report = fp.linear_fit([r for r, _, _ in report], [m for _, m, _ in report])
    print(
        "[PRIMARY 09][report] H=0.6 moments "
        + ", ".join(f"r={r:g}: {m:.4f}+-{s:.4f}" for r, m, s in report)
        + f"; trend slope {fit_report.slope:.5f} (se {fit_report.slope_se:.5f}) - reported, not asserted"
    )

    fit = fp.linear_fit([r for r, _, _ in triples], [m for _, m, _ in triples])
    ok = abs(fit.slope) <= 2.0 * fit.slope_se
    _report(9, "truncated argmax moment at H=1/2 shows no trend across windows",
            ok,
            ", ".join(f"r={r:g}: {m:.4f}" for r, m, _ in triples)
            + f"; slope {fit.slope:.5f} vs 2*se {2 * fit.slope_se:.5f}")
    assert ok, (
        "the moment grows like r^(1/4) at H=1/2, so a flat trend over r=5..20 "
        f"is not attainable: measured slope {fit.slope:.5f}, 2*se {2 * fit.slope_se:.5f}"
    )


def test_survival_tail_exponent():
    times = fp.run_simulation(_job((0.5,), 2**12, 100_000), workers=2)["simple"][0]
    t_values = np.array([2.5, 5.0, 10.0, 20.0])
    survival = np.array([(times >= t).sum() / len(times) for t in t_values])
    fit = fp.linear_fit(np.log(t_values), np.log(survival))
    ok = -0.6 <= fit.slope <= -0.4
    _report(10, "survival tail at H=1/2 decays like t^(-1/2)",
            ok, f"slope {fit.slope:.4f}, R^2 {fit.r_squared:.4f}")
    assert ok


def test_worker_count_byte_identical_csv(tmp_path):
    argv = [
        "simulate",
        "--seed", "77",
        "--horizon", "10",
        "--steps", "1024",
        "--samples", "600",
        "--hurst-list", "0.5,0.6",
        "--lambda-list", "1,2",
    ]
    a, b = tmp_path / "w1", tmp_path / "w3"
    assert main(argv + ["--out", str(a), "--workers", "1"]) == 0
    assert main(argv + ["--out", str(b), "--workers", "3"]) == 0
    same = (a / "laplace.csv").read_bytes() == (b / "laplace.csv").read_bytes()
    _report(11, "worker count never changes the written tables",
            same, "laplace.csv byte-identical across --workers 1 and 3")
    assert same
