"""The bridge rule at H = 1/2 against its exact law on the simulated grid.

`grid_laws` gives the rule's Laplace value on the grid in closed form for
models with no linear drift term, so these checks carry no grid bias and
need no fine grid: at N = 256 they test the runner's paths, the reduction
to unit diffusion and the bridge crossing probability together.
"""

import csv
import math

import pytest

from fbmpassage.cli import main
from fbmpassage.sde import reduced_model
from grid_laws import _TAIL, _normal_cdf, _reflected_term, bridge_grid_laplace, bridge_grid_masses, passage_cdf


def test_bridge_grid_law_matches_an_independent_evaluation():
    """Values of the same sum by scipy's ndtr (T = 20, level 1, zero drift):
    0.233861 and 0.050756 at N = 256, whose backward-induction solve on the
    grid gave 0.23387 and 0.05077, and 0.242524 and 0.058532 at N = 4096,
    below the continuous exp(-sqrt(2 lambda)) = 0.243117 and 0.059106."""
    for steps, expected in ((256, (0.233861, 0.050756)), (4096, (0.242524, 0.058532))):
        got = [bridge_grid_laplace(lam, 0.0, 1.0, 20.0 / steps, steps) for lam in (1.0, 4.0)]
        assert got == pytest.approx(expected, abs=1e-6)
        assert all(value < math.exp(-math.sqrt(2.0 * lam)) for value, lam in zip(got, (1.0, 4.0)))


@pytest.mark.parametrize("c", [-0.4, 0.0, 0.15, 2.0])
def test_passage_law_is_the_drifted_brownian_one(c):
    """The masses are non-negative, up to roundoff, and sum to F(T); F(t) -> min(1, e^(2 c level)) as t grows, and at
    c = 0 it is the reflection law 2 Phi(-level / sqrt t)."""
    level, step, steps = 0.5, 20.0 / 256, 256
    masses = bridge_grid_masses(c, level, step, steps)
    assert min(masses) >= -1e-15  # differences of F near 1 round to -1.1e-16
    assert sum(masses) == pytest.approx(passage_cdf(c, level, step * steps), rel=1e-12)
    assert passage_cdf(c, level, 1e12) == pytest.approx(min(1.0, math.exp(2.0 * c * level)), rel=1e-5)
    if c == 0.0:
        for t in (0.01, 1.0, 20.0):
            assert passage_cdf(c, level, t) == pytest.approx(2.0 * _normal_cdf(-level / math.sqrt(t)), rel=1e-14)


def test_reflected_term_is_finite_and_continuous_for_any_drift():
    """e^(2 c level) would overflow from c level ~ 355 and Phi(z) underflows; the tail form takes over below
    z = _TAIL and agrees there with the direct product, and a drift that crosses within the first step
    books every path at that step."""
    level, t = 1.0, 0.001
    c = (-_TAIL * math.sqrt(t) - level) / t  # z = _TAIL exactly
    direct = math.exp(2.0 * c * level) * _normal_cdf(_TAIL)
    assert _reflected_term(c * (1.0 + 1e-12), level, t) == pytest.approx(direct, rel=1e-9)
    step = 20.0 / 256
    for c in (400.0, 1e3, 1e6, 1e300):
        assert bridge_grid_laplace(1.0, c, level, step, 256) == pytest.approx(math.exp(-step), rel=1e-12)


# Seeds 1-12 at these settings (20k paths, N = 256, T = 20) read z from
# -1.61 to +2.51 over the three models and lambda = 1, 2, 4, the bound
# chosen above that spread.  At seed 1 the continuous-time transform, which
# lacks the crossing's booking at the step's end, reads z from -4.1 to
# -20.3, and a bridge test with exponent -1.8 in place of -2 reads up to
# +4.44 (const:2, lambda = 4).
Z_BOUND = 4.0
SEED = 1


@pytest.mark.parametrize(
    "model",
    [("zero", "one"), ("zero", "const:2"), ("linear:0,0.3", "const:2")],
    ids=["pure", "const2", "linear-const2"],
)
def test_bridge_values_at_half_match_the_exact_grid_law(tmp_path, model):
    drift, diffusion = model
    a, c, _, level = reduced_model(drift, diffusion, 0.0, 1.0)
    assert a == 0.0
    argv = ["simulate", "--hurst-list", "0.5", "--estimator", "bridge", "--steps", "256", "--samples", "20000",
            "--horizon", "20", "--lambda-list", "1,2,4", "--seed", str(SEED), "--drift", drift,
            "--diffusion", diffusion, "--out", str(tmp_path)]
    assert main(argv) == 0
    with open(tmp_path / "laplace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        exact = bridge_grid_laplace(float(row["lambda"]), c, level, 20.0 / 256, 256)
        z = (float(row["value"]) - exact) / float(row["std_error"])
        assert abs(z) < Z_BOUND, (row["lambda"], row["value"], exact, z)
