"""The end-to-end comparison in tools/bench_pr.py, on synthetic pairs.

Covers each verdict against a metric's bound: "worse" when the change's
median is worse by more than the bound, in either direction of better;
"unresolved" when the base's relative quartile spread exceeds the bound
and not every change run beats every base run; "within" otherwise,
including a wide spread that every change run beats.  `claim_met` holds
only when the change wins at least nine of ten pairs, ties counting for
neither side, and its median moves by more than the base's quartile
spread, in either direction of better.
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


# the base's quartiles are 0.9925 and 1.0075 (IQR 0.015) and its median 1.0
@pytest.mark.parametrize(
    "change, better, met",
    [
        ([0.9 * v for v in TIGHT], "lower", True),  # 10/10, the median falls by 0.1
        ([1.1 * v for v in TIGHT], "higher", True),
        ([0.9 * v for v in TIGHT[:9]] + [2.0], "lower", True),  # 9/10 is enough
        ([0.9 * v for v in TIGHT[:8]] + [2.0, 2.0], "lower", False),  # 8/10 is not
        ([0.9 * v for v in TIGHT[:9]] + [TIGHT[9]], "lower", True),  # a tie counts for neither side
        ([0.9 * v for v in TIGHT[:8]] + TIGHT[8:], "lower", False),
        ([v - 0.012 for v in TIGHT], "lower", False),  # 10/10, but 0.012 is inside the IQR
        ([v - 0.02 for v in TIGHT], "lower", True),
        ([0.9 * v for v in TIGHT], "higher", False),
    ],
)
def test_claim_needs_nine_in_ten_pairs_and_a_move_past_the_base_iqr(change, better, met):
    got = _compare(TIGHT, change, better)
    assert got["claim_met"] is met
