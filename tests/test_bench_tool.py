"""The summary arithmetic of ``tools/bench.py`` on a synthetic list of runs (no timing)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(side, seed, wall, ok, workload="analysis"):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "ok_ratio": {"value": ok, "unit": "1"}}
    return {"side": side, "workload": workload, "seed": seed, "result": {"metrics": metrics}}


def test_summary_pairs_runs_by_seed_and_counts_wins_in_the_metric_direction():
    runs = [
        run("parent", 1, 1.0, 1.0), run("change", 1, 0.5, 1.0),
        run("change", 2, 2.5, 1.0), run("parent", 2, 2.0, 1.0),
        run("parent", 3, 3.0, 1.0), run("change", 3, 2.0, 0.5),
        run("parent", 4, 4.0, 1.0), run("change", 4, 3.0, 1.0),
        run("parent", 5, 9.0, 1.0),  # its change run is missing: no pair
        run("change", 1, 7.0, 1.0, workload="orbit"), run("parent", 1, 8.0, 0.9, workload="orbit"),
    ]
    summary = load_bench().summarize(runs, {"wall_s": "lower", "ok_ratio": "higher"})
    assert set(summary) == {"analysis", "orbit"}
    wall = summary["analysis"]["wall_s"]
    assert wall["pairs"] == 4
    assert wall["change_wins"] == 3  # lower is better; seed 2 went up
    assert wall["per_seed"] == {"1": [1.0, 0.5], "2": [2.0, 2.5], "3": [3.0, 2.0], "4": [4.0, 3.0]}
    # numpy's linear-interpolation quartiles of 1, 2, 3, 4 and of 0.5, 2, 2.5, 3
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
    assert wall["change"] == pytest.approx({"median": 2.25, "q1": 1.625, "q3": 2.625, "n": 4})
    ok = summary["analysis"]["ok_ratio"]
    assert ok["change_wins"] == 0  # higher is better; a tie is not a win
    assert ok["change"]["median"] == 1.0
    orbit = summary["orbit"]
    assert orbit["wall_s"]["change_wins"] == 1
    assert orbit["ok_ratio"]["change_wins"] == 1
    assert orbit["ok_ratio"]["per_seed"] == {"1": [0.9, 1.0]}


def test_seed_ranges_include_both_ends():
    bench = load_bench()
    assert bench._seeds("11:14") == [11, 12, 13, 14]
    assert bench._seeds("7") == [7]
