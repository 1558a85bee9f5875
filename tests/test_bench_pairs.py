import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_medians_quartiles_and_wins(bench_pairs):
    parent = [{"t": v, "rate": 10.0} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"t": v, "rate": r} for v, r in ((0.5, 11.0), (2.5, 10.0), (3.0, 9.0), (1.0, 12.0), (0.1, 10.0))]
    out = bench_pairs.summarize(parent, change, [("t", "s", "lower"), ("rate", "1/s", "higher")])
    assert out["t"] == {
        "unit": "s",
        "parent_median": 3.0,
        "parent_quartiles": [2.0, 4.0],
        "change_median": 1.0,
        "change_quartiles": [0.5, 2.5],
        # pair 2 lost, pair 3 tied: a tie counts for neither side
        "change_wins": 3,
    }
    assert out["rate"]["change_wins"] == 2
    assert out["rate"]["parent_quartiles"] == [10.0, 10.0]


def test_summarize_rounds_and_refuses_unpaired_runs(bench_pairs):
    out = bench_pairs.summarize([{"x": 1 / 3}, {"x": 2 / 3}], [{"x": 0.1}, {"x": 0.2}], [("x", "s", "lower")])
    assert out["x"]["parent_median"] == 0.5 and out["x"]["parent_quartiles"] == [0.4167, 0.5833]
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"x": 1.0}] * 3, [{"x": 1.0}] * 2, [("x", "s", "lower")])


def test_seed_ranges_and_perfbench_command(bench_pairs):
    assert bench_pairs.parse_seeds("1301-1304") == [1301, 1302, 1303, 1304]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]
    assert bench_pairs.command("montecarlo", 7, 30.0) == [
        "python3", "perfbench/run.py", "--workload", "montecarlo",
        "--seed", "7", "--seconds", "30", "--trace", "0",
    ]
