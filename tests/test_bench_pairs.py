import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_canned_pairs(bench_pairs):
    # five pairs: the change is faster in four, never slower in throughput
    parent_s = [0.33, 0.30, 0.35, 0.31, 0.29]
    change_s = [0.26, 0.31, 0.25, 0.24, 0.23]
    pairs = [
        ({"op_s.p50": p, "ops_per_min": 60.0 / p}, {"op_s.p50": c, "ops_per_min": 60.0 / c})
        for p, c in zip(parent_s, change_s)
    ]
    summary = bench_pairs.summarize(pairs, {"op_s.p50": "lower", "ops_per_min": "higher"})
    op = summary["op_s.p50"]
    assert op["parent_median"] == 0.31 and op["change_median"] == 0.25
    assert (op["parent_q1"], op["parent_q3"]) == pytest.approx((0.30, 0.33))
    assert op["wins"] == 4 and op["pairs"] == 5
    rate = summary["ops_per_min"]
    assert rate["wins"] == 4
    assert rate["change_median"] == pytest.approx(60.0 / 0.25)


def test_ties_are_not_wins(bench_pairs):
    pairs = [({"peak_rss_mb": 116.0}, {"peak_rss_mb": 116.0})]
    summary = bench_pairs.summarize(pairs, {"peak_rss_mb": "lower"})["peak_rss_mb"]
    assert summary["wins"] == 0
    assert summary["parent_q1"] == summary["parent_q3"] == 116.0


def test_parse_seeds(bench_pairs):
    assert bench_pairs.parse_seeds("1-10") == list(range(1, 11))
    assert bench_pairs.parse_seeds("3") == [3]
    assert bench_pairs.parse_seeds("1,4-6") == [1, 4, 5, 6]
