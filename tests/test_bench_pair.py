"""scripts/bench_pair.py: seed lists and the per-metric pair summary."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pair.py"


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BETTER = {"ops_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}


def _runs(side, values):
    """One run per seed 1.. with the metric columns given as lists."""
    n = len(next(iter(values.values())))
    return [{"side": side, "seed": k + 1,
             **{m: vals[k] for m, vals in values.items()}}
            for k in range(n)]


def test_parse_seeds(bench_pair):
    assert bench_pair.parse_seeds("21-30") == list(range(21, 31))
    assert bench_pair.parse_seeds("1,4,9") == [1, 4, 9]


def test_summarize_medians_quartiles_and_wins(bench_pair):
    parent = _runs("parent", {"ops_per_s": [1, 2, 3, 4, 5, 99],
                              "peak_rss_mb": [10, 10, 10, 10, 10, 0],
                              "setup_s": [1, 1, 1, 1, 1, 1]})
    change = _runs("change", {"ops_per_s": [2, 3, 4, 5, 6],
                              "peak_rss_mb": [9, 11, 9, 11, 9],
                              "setup_s": [1, 1, 1, 1, 1]})
    out = bench_pair.summarize(parent + change, BETTER)
    assert set(out) == set(BETTER)

    ops = out["ops_per_s"]   # higher is better; seed 6 has no pair
    assert ops["pairs"] == 5
    assert ops["parent_median"] == 3 and ops["change_median"] == 4
    assert ops["parent_quartiles"] == [2, 4]
    assert ops["change_quartiles"] == [3, 5]
    assert ops["change_better_in"] == 5
    assert ops["median_ratio_change_over_parent"] == pytest.approx(4 / 3)

    rss = out["peak_rss_mb"]   # lower is better
    assert rss["parent_median"] == 10 and rss["change_median"] == 9
    assert rss["parent_quartiles"] == [10, 10]
    assert rss["change_quartiles"] == [9, 11]
    assert rss["change_better_in"] == 3

    assert out["setup_s"]["change_better_in"] == 0   # ties are no win


def test_summarize_without_pairs_is_empty(bench_pair):
    parent = _runs("parent", {m: [1.0] for m in BETTER})
    assert bench_pair.summarize(parent, BETTER) == {}
