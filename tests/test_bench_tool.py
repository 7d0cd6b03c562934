"""The summary arithmetic and revision naming of ``tools/bench.py`` (no timing)."""

import importlib.util
import json
import subprocess
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


@pytest.mark.parametrize("flag, text", [("--seeds", "5:3"), ("--seeds", "a:b"), ("--seeds", "1.5"),
                                        ("--trace-seeds", "3:1"), ("--trace-seeds", "")])
def test_an_empty_reversed_or_non_integer_seed_range_is_refused(tmp_path, capsys, flag, text):
    # refused before any run: the BENCH file would hold no pairs
    argv = [str(tmp_path), str(tmp_path), "--workload", "analysis", "--out", str(tmp_path / "b.json")]
    argv += ["--seeds", "1:2", flag, text] if flag == "--trace-seeds" else [flag, text]
    with pytest.raises(SystemExit) as exit_:
        load_bench().main(argv)
    assert exit_.value.code == 2
    assert f"seed range {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_compare_prints_the_summary_and_the_first_versus_second_gap(tmp_path, capsys):
    bench = load_bench()
    runs = []
    # ABBA: the parent runs first in pairs 1 and 4, the change in pairs 2 and 3
    for seed, first, values in ((1, "parent", (1.0, 1.5)), (2, "change", (2.0, 2.2)),
                                (3, "change", (4.0, 3.0)), (4, "parent", (1.0, 1.1))):
        second = "change" if first == "parent" else "parent"
        for side, wall in zip((first, second), values):
            record = run(side, seed, wall, 1.0)
            record.update(trace=0, ran_first=side == first)
            runs.append(record)
    traced = run("parent", 9, 100.0, 1.0)
    traced.update(trace=1, ran_first=True)  # not part of the gap
    gaps = bench.order_gaps(runs)
    # second / first - 1: +50%, +10%, -25%, +10%
    assert gaps["analysis"]["wall_s"] == pytest.approx({"median": 0.1, "second_higher": 3, "pairs": 4})
    assert gaps["analysis"]["ok_ratio"] == {"median": 0.0, "second_higher": 0, "pairs": 4}
    data = {
        "parent": "abc1234", "change": "", "runs": runs + [traced],
        "summary": bench.summarize(runs, {"wall_s": "lower", "ok_ratio": "higher"}),
    }
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(data))
    assert bench.main(["--compare", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{path}: parent abc1234, change ?"
    # parent walls 1, 2.2, 3, 1; change walls 1.5, 2, 4, 1.1
    # change / parent - 1 per pair: +50%, -9.09%, +33.33%, +10%
    assert lines[1] == ("analysis wall_s: parent 1.6 [1, 2.4] -> change 1.75 [1.4, 2.5], change won 1 of 4,"
                        " change / parent - 1 median +21.67% [+5.23%, +37.50%]")
    assert lines[2] == ("analysis ok_ratio: parent 1 [1, 1] -> change 1 [1, 1], change won 0 of 4,"
                        " change / parent - 1 median +0.00% [+0.00%, +0.00%]")
    assert lines[3] == "analysis wall_s: second / first - 1 median +10.00%, second higher in 3 of 4"
    assert lines[4] == "analysis ok_ratio: second / first - 1 median +0.00%, second higher in 0 of 4"
    assert len(lines) == 5


def test_the_paired_ratio_is_change_over_parent_minus_one_per_pair(tmp_path, capsys):
    bench = load_bench()
    runs = [
        run("parent", 1, 2.0, 0.0), run("change", 1, 1.0, 0.0),  # -50%
        run("parent", 2, 4.0, 0.0), run("change", 2, 5.0, 0.0),  # +25%
        run("change", 3, 3.0, 0.0), run("parent", 3, 3.0, 0.0),  # 0%
        run("parent", 4, 1.0, 0.0), run("change", 4, 1.1, 0.0),  # +10%
        run("parent", 5, 0.0, 0.0), run("change", 5, 9.0, 0.0),  # a zero parent: left out
        run("parent", 6, 7.0, 0.0),  # no change run: no pair
    ]
    summary = bench.summarize(runs, {"wall_s": "lower", "ok_ratio": "higher"})
    wall = summary["analysis"]["wall_s"]
    assert wall["pairs"] == 5
    # numpy's linear-interpolation quartiles of -0.5, 0, 0.1, 0.25
    assert wall["ratio"] == pytest.approx({"median": 0.05, "q1": -0.125, "q3": 0.1375, "n": 4})
    assert summary["analysis"]["ok_ratio"]["ratio"] is None  # every parent value is 0
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"parent": "", "runs": [], "summary": {"analysis": {"wall_s": wall}}}))
    assert bench.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(
        "change won 1 of 5, change / parent - 1 median +5.00% [-12.50%, +13.75%]"
    )


def test_a_run_needs_both_checkouts_unless_it_compares(capsys):
    with pytest.raises(SystemExit):
        load_bench().main(["parent_only"])
    assert "--compare FILE" in capsys.readouterr().err


def test_readme_commands_are_timed_after_each_pair_in_its_order(tmp_path, monkeypatch, capsys):
    bench = load_bench()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(root, workload, seed, seconds, trace, env):
        calls.append((Path(root).name, "run", seed))
        return {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    def fake_time(root, argv, env):
        calls.append((Path(root).name, argv[0], None))
        return 2.0 if Path(root).name == "parent" else 1.0

    monkeypatch.setattr(bench, "run_once", fake_run)
    monkeypatch.setattr(bench, "time_command", fake_time)
    monkeypatch.setattr(bench, "time_setup", lambda root, workload, seed, seconds, env: 0.1)
    monkeypatch.setattr(bench, "readme_commands", lambda readme: [["releq", "--K", "1"], ["zero-roots"]])
    monkeypatch.setattr(bench, "verify_criteria", lambda root: [])
    out = tmp_path / "BENCH_0.json"
    argv = [str(tmp_path / "parent"), str(change), "--workload", "analysis", "--seeds", "1:2",
            "--trace-seeds", "3", "--out", str(out)]
    assert bench.main(argv) == 0
    # pair 1 runs the parent first, pair 2 the change, each command as its pair;
    # the traced pair times no README command
    p, c = "parent", "change"
    assert calls == [
        (p, "run", 1), (c, "run", 1), (p, "releq", None), (c, "releq", None),
        (p, "zero-roots", None), (c, "zero-roots", None),
        (c, "run", 2), (p, "run", 2), (c, "releq", None), (p, "releq", None),
        (c, "zero-roots", None), (p, "zero-roots", None),
        (p, "run", 3), (c, "run", 3),
    ]
    readme = json.loads(out.read_text())["readme"]
    assert set(readme) == {"releq --K 1", "zero-roots"}
    wall = readme["releq --K 1"]["wall_s"]
    assert wall["pairs"] == 2 and wall["change_wins"] == 2
    assert wall["per_seed"] == {"1": [2.0, 1.0], "2": [2.0, 1.0]}
    capsys.readouterr()
    assert bench.main(["--compare", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("readme releq --K 1 wall_s: parent 2 [2, 2] -> change 1 [1, 1], change won 2 of 2,"
            " change / parent - 1 median -50.00% [-50.00%, -50.00%]") in lines


def test_each_verify_criterion_is_timed_after_each_pair_in_its_order(tmp_path, monkeypatch, capsys):
    bench = load_bench()
    change = tmp_path / "change"
    (change / "src" / "pllbif").mkdir(parents=True)
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (change / "src" / "pllbif" / "acceptance.py").write_text(
        "def _crit_4(): pass\ndef _crit_12(): pass\n"
        '_CRITERIA = [\n    (4, "orbit", _crit_4),\n    (12, "integrator", _crit_12),\n]\n'
    )
    assert bench.verify_criteria(str(change)) == [4, 12]
    assert bench.verify_criteria(str(ROOT)) == list(range(1, 13))
    calls = []

    def fake_run(root, workload, seed, seconds, trace, env):
        calls.append((Path(root).name, "run"))
        return {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    def fake_time(root, argv, env):
        calls.append((Path(root).name, " ".join(argv)))
        return {"parent": 3.0, "change": 2.0}[Path(root).name] if argv[-1] == "4" else 1.0

    monkeypatch.setattr(bench, "run_once", fake_run)
    monkeypatch.setattr(bench, "time_command", fake_time)
    monkeypatch.setattr(bench, "time_setup", lambda root, workload, seed, seconds, env: 0.1)
    monkeypatch.setattr(bench, "readme_commands", lambda readme: [["zero-roots"]])
    out = tmp_path / "BENCH_0.json"
    argv = [str(tmp_path / "parent"), str(change), "--workload", "orbit", "--seeds", "1:2",
            "--trace-seeds", "3", "--out", str(out)]
    assert bench.main(argv) == 0
    # after the README commands, each criterion once per side in the pair's
    # order; the traced pair times nothing
    p, c = "parent", "change"
    four, twelve = "verify --only 4", "verify --only 12"
    assert calls == [
        (p, "run"), (c, "run"), (p, "zero-roots"), (c, "zero-roots"),
        (p, four), (c, four), (p, twelve), (c, twelve),
        (c, "run"), (p, "run"), (c, "zero-roots"), (p, "zero-roots"),
        (c, four), (p, four), (c, twelve), (p, twelve),
        (p, "run"), (c, "run"),
    ]
    data = json.loads(out.read_text())
    assert set(data["verify"]) == {"--only 4", "--only 12"}
    wall = data["verify"]["--only 4"]["wall_s"]
    assert wall["pairs"] == 2 and wall["change_wins"] == 2
    assert wall["per_seed"] == {"1": [3.0, 2.0], "2": [3.0, 2.0]}
    assert data["verify"]["--only 12"]["wall_s"]["change_wins"] == 0
    assert "pllbif verify --only K" in data["method"]
    capsys.readouterr()
    assert bench.main(["--compare", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("verify --only 4 wall_s: parent 3 [3, 3] -> change 2 [2, 2], change won 2 of 2,"
            " change / parent - 1 median -33.33% [-33.33%, -33.33%]") in lines
    assert ("verify --only 12 wall_s: parent 1 [1, 1] -> change 1 [1, 1], change won 0 of 2,"
            " change / parent - 1 median +0.00% [+0.00%, +0.00%]") in lines


def test_setup_is_timed_after_each_pair_in_its_order(tmp_path, monkeypatch, capsys):
    bench = load_bench()
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []
    # (parent, change) per (workload, seed)
    setups = {("orbit", 1): (0.3, 0.2), ("orbit", 2): (0.2, 0.25),
              ("analysis", 1): (0.4, 0.3), ("analysis", 2): (0.5, 0.5)}

    def fake_run(root, workload, seed, seconds, trace, env):
        calls.append((Path(root).name, "run", workload, seed))
        return {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    def fake_setup(root, workload, seed, seconds, env):
        calls.append((Path(root).name, "setup", workload, seed))
        return setups[workload, seed][Path(root).name == "change"]

    def fake_time(root, argv, env):
        calls.append((Path(root).name, argv[0], None, None))
        return 1.0

    monkeypatch.setattr(bench, "run_once", fake_run)
    monkeypatch.setattr(bench, "time_setup", fake_setup)
    monkeypatch.setattr(bench, "time_command", fake_time)
    monkeypatch.setattr(bench, "readme_commands", lambda readme: [["zero-roots"]])
    monkeypatch.setattr(bench, "verify_criteria", lambda root: [])
    out = tmp_path / "BENCH_0.json"
    argv = [str(tmp_path / "parent"), str(change), "--workload", "orbit", "--workload", "analysis",
            "--seeds", "1:2", "--trace-seeds", "3", "--out", str(out)]
    assert bench.main(argv) == 0
    # right after each main pair, one set-up process per side in the pair's
    # order, before the README commands; the traced pairs time no set-up
    p, c = "parent", "change"
    main_calls = [(a, b, w, s) for a, b, w, s in calls if b != "zero-roots"]
    assert main_calls == [
        (p, "run", "orbit", 1), (c, "run", "orbit", 1), (p, "setup", "orbit", 1), (c, "setup", "orbit", 1),
        (c, "run", "orbit", 2), (p, "run", "orbit", 2), (c, "setup", "orbit", 2), (p, "setup", "orbit", 2),
        (p, "run", "analysis", 1), (c, "run", "analysis", 1),
        (p, "setup", "analysis", 1), (c, "setup", "analysis", 1),
        (c, "run", "analysis", 2), (p, "run", "analysis", 2),
        (c, "setup", "analysis", 2), (p, "setup", "analysis", 2),
        (p, "run", "orbit", 3), (c, "run", "orbit", 3), (c, "run", "analysis", 3), (p, "run", "analysis", 3),
    ]
    assert calls[4] == (p, "zero-roots", None, None)
    data = json.loads(out.read_text())
    assert "--setup-only" in data["method"]
    orbit = data["setup"]["orbit"]["setup_s"]
    assert orbit["per_seed"] == {"1": [0.3, 0.2], "2": [0.2, 0.25]}
    assert orbit["change_wins"] == 1 and orbit["pairs"] == 2  # lower is better
    assert orbit["parent"] == pytest.approx({"median": 0.25, "q1": 0.225, "q3": 0.275, "n": 2})
    analysis = data["setup"]["analysis"]["setup_s"]
    assert analysis["change_wins"] == 1  # a tie is not a win
    capsys.readouterr()
    assert bench.main(["--compare", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("setup analysis setup_s: parent 0.45 [0.425, 0.475] -> change 0.4 [0.35, 0.45], change won 1 of 2,"
            " change / parent - 1 median -12.50% [-18.75%, -6.25%]") in lines


def test_setup_runs_in_the_worker_environment_of_run_py(monkeypatch):
    bench = load_bench()
    seen = []

    def fake_last_json(cmd, root, env):
        seen.append((cmd, root, env))
        return {"setup_s": 0.25}

    monkeypatch.setattr(bench, "_last_json", fake_last_json)
    assert bench.time_setup("/checkout", "network", 7, 35.0, {"PYTHONDONTWRITEBYTECODE": "1"}) == 0.25
    ((cmd, root, env),) = seen
    assert root == "/checkout"
    assert cmd[1:] == ["perfbench/worker.py", "--workload", "network", "--seed", "7", "--seconds", "35.0",
                       "--setup-only"]
    # run.py's own table, not a copy of it
    assert env == {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0", **bench.PINNED}
    assert bench.PINNED["OPENBLAS_NUM_THREADS"] == "1"


def test_the_revision_is_read_only_at_a_repository_top_level(tmp_path):
    def git(*args, cwd=tmp_path / "repo"):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=cwd, capture_output=True, text=True, check=True,
        ).stdout.strip()

    (tmp_path / "repo").mkdir()
    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "first")
    first = git("rev-parse", "--short", "HEAD")
    git("commit", "-q", "--allow-empty", "-m", "second")
    git("worktree", "add", "-q", "--detach", str(tmp_path / "tree"), first)
    nested = tmp_path / "repo" / "copy"
    nested.mkdir()
    bench = load_bench()
    # a worktree has its own HEAD; a plain directory in a repository or
    # outside any has none
    assert bench._revision(str(tmp_path / "tree")) == first
    assert bench._revision(str(tmp_path / "repo")) == git("rev-parse", "--short", "HEAD") != first
    assert bench._revision(str(nested)) == "unknown"
    assert bench._revision(str(tmp_path)) == "unknown"
