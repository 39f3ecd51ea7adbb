"""scripts/bench_pair.py: seed lists and the per-metric pair summary."""

import importlib.util
import json
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


SPEC = {"ops_per_s": {"better": "higher", "bound": 0.24},
        "peak_rss_mb": {"better": "lower", "bound": 0.1},
        "setup_s": {"better": "lower", "bound": 0.25}}


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
    out = bench_pair.summarize(parent + change, SPEC)
    assert set(out) == set(SPEC)

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
    parent = _runs("parent", {m: [1.0] for m in SPEC})
    assert bench_pair.summarize(parent, SPEC) == {}


def test_summarize_flags_a_median_worse_beyond_the_bound(bench_pair):
    parent = _runs("parent", {"ops_per_s": [100, 100, 100],
                              "peak_rss_mb": [20, 20, 20],
                              "setup_s": [1.0, 1.0, 1.0]})
    change = _runs("change", {"ops_per_s": [75, 77, 90],      # 0.77x
                              "peak_rss_mb": [23, 22.4, 21],  # 1.12x
                              "setup_s": [1.2, 1.2, 2.0]})    # 1.2x
    out = bench_pair.summarize(parent + change, SPEC)
    assert {m: e["worse_beyond_bound"] for m, e in out.items()} == {
        "ops_per_s": False, "peak_rss_mb": True, "setup_s": False}
    change = _runs("change", {"ops_per_s": [70, 75, 90],      # 0.75x
                              "peak_rss_mb": [5, 5, 5],
                              "setup_s": [1.3, 1.3, 1.3]})    # 1.3x
    out = bench_pair.summarize(parent + change, SPEC)
    assert {m: e["worse_beyond_bound"] for m, e in out.items()} == {
        "ops_per_s": True, "peak_rss_mb": False, "setup_s": True}


def test_bounds_are_read_from_the_benchmark(bench_pair):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"] for m in bench["end_to_end"]} == set(
        bench_pair.END_TO_END)
    assert all(0 < m["bound"] < 1 for m in bench["end_to_end"])
