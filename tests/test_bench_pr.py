"""The end-to-end comparison in tools/bench_pr.py, on synthetic pairs.

Covers each verdict against a metric's bound: "worse" when the change's
median is worse by more than the bound, in either direction of better;
"unresolved" when the base's relative quartile spread exceeds the bound
and not every change run beats every base run; "within" otherwise,
including a wide spread that every change run beats.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pr", Path(__file__).resolve().parents[1] / "tools" / "bench_pr.py")
bench_pr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pr)


def _compare(base, change, better, bound=0.25):
    pairs = [({"metrics": {"m": {"value": b}}}, {"metrics": {"m": {"value": c}}}) for b, c in zip(base, change)]
    return bench_pr.compare(pairs, [{"name": "m", "unit": "s", "better": better, "bound": bound}])["m"]


TIGHT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
WIDE = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 0.8, 1.2]


@pytest.mark.parametrize(
    "base, change, better, verdict",
    [
        (TIGHT, [1.3 * v for v in TIGHT], "lower", "worse"),
        (TIGHT, [0.7 * v for v in TIGHT], "higher", "worse"),
        (TIGHT, [1.2 * v for v in TIGHT], "lower", "within"),
        (TIGHT, [0.5 * v for v in TIGHT], "lower", "within"),
        (WIDE, WIDE[::-1], "lower", "unresolved"),
        (WIDE, [0.4] * 10, "lower", "within"),
        (WIDE, [1.6] * 10, "higher", "within"),
        (WIDE, [1.6] * 10, "lower", "worse"),
    ],
)
def test_compare_gives_each_verdict(base, change, better, verdict):
    got = _compare(base, change, better)
    assert got["verdict"] == verdict
    assert got["bound"] == 0.25 and got["pairs"] == 10
