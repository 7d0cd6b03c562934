"""Benchmark a change against its parent: paired ``perfbench/run.py`` runs in two checkouts.

Usage::

    python3 tools/bench.py PARENT_ROOT CHANGE_ROOT --workload analysis --seeds 11:22 \\
        --out BENCH_<pr>.json [--workload orbit ...] [--trace-seeds 31:32]
    python3 tools/bench.py --compare BENCH_<pr>.json

For every workload and every seed in ``--seeds`` (both ends included) it runs
``python3 perfbench/run.py --workload W --seed S --seconds X --trace 0`` once
in each checkout, one process at a time, with X the ``run_seconds`` of the
change's BENCHMARK.json.  The pairs alternate ABBA: the
first pair runs the parent first, the next the change first, and so on, so
each side runs second equally often.  Both sides get the same environment:
this process's, with ``PYTHONDONTWRITEBYTECODE=1``, so no run leaves byte
code behind for a later one.  A checkout's own ``__pycache__`` is still read,
so give the tool two fresh checkouts with their own HEAD, best made by
``git worktree add --detach DIR REV`` (or ``git clone``).  The output's
``parent`` is the parent checkout's short commit, read only where that
directory is itself a repository's top level: a ``git archive`` copy, or a
plain directory inside another repository, reads ``unknown``.
``--trace-seeds`` adds pairs at ``--trace 1`` for the per-layer metrics.
After each ``--trace 0`` pair, every ``pllbif`` command of the change's README
(``tools/readme_outputs.readme_commands``) runs once in each checkout, in the
pair's order, as ``python3 -m pllbif.cli`` with that checkout's ``src`` on
the path, in an empty directory, and its wall time is kept.  Then
``pllbif verify --only K`` runs the same way for each criterion K of the
change's acceptance table (``verify_criteria``), once per checkout in the
pair's order.  Set-up is timed on its own as well: after each ``--trace 0``
pair, ``perfbench/worker.py --setup-only`` (import and input generation, no
pass) runs once in each checkout, in the pair's order, with the environment
``run.py`` gives its workers (``PYTHONHASHSEED=0`` and its ``PINNED``
threads), and its ``setup_s`` is kept.

The output file has the layout of ``BENCH_20.json``: ``change``, ``parent``,
``machine``, ``command``, ``method``, ``claim``, ``summary`` (the ``--trace 0``
pairs), ``traced`` (the ``--trace 1`` pairs), ``readme`` (the README
commands' ``wall_s``, one entry per command, its pairs keyed by pair number),
``verify`` (the same for each criterion, keyed ``--only K``), ``setup`` (the
``--setup-only`` processes' ``setup_s`` per workload, keyed by seed) and ``runs``,
one record per run with the last output line of ``run.py`` under
``result``.  ``change`` and ``claim`` are left empty, to be written after
reading the summary.  Each
summary entry gives, per workload and metric, both sides' median, quartiles
(numpy's linear interpolation) and run count, the number of pairs the change
won (strictly better, in the metric's direction from the change's
BENCHMARK.json), ``ratio``: the median and quartiles of change / parent - 1
over the pairs (a pair whose parent value is 0 left out), and the per-seed
values [parent, change].  The host's speed drifts from one pair to the next,
so the two sides' medians can spread more than the two runs of one pair
differ; the paired ratio keeps only that difference.

``--compare FILE`` prints a file's ``summary`` one line per workload and
metric, with its paired ratio (recomputed from ``per_seed``, so older files
get it too), its ``readme`` one line per command, its ``verify`` one line per
criterion and its ``setup`` one line per workload, and then, per workload
and metric, the median over the pairs of the ``--trace 0`` set of (second
run / first run - 1), whichever side ran first, with the number of pairs
whose second run read higher: a gap that the ABBA order leaves in both
sides' numbers alike.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from readme_outputs import readme_commands  # noqa: E402  (tools/ is not a package)

# perfbench/run.py's PINNED: the thread counts its workers run with
_RUN = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "..", "perfbench", "run.py"))
_run = importlib.util.module_from_spec(_RUN)
_RUN.loader.exec_module(_run)
PINNED = _run.PINNED

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """The seeds A..B of "A:B", or the one seed of "A"; ValueError unless A <= B are integers."""
    first, _, last = text.partition(":")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise ValueError(f"seed range {text!r} is not A:B with integers A <= B")
    return seeds


def _revision(root: str) -> str:
    # inside another repository, HEAD would name that repository's tree
    proc = subprocess.run(
        ["git", "-C", root, "rev-parse", "--show-toplevel", "--short", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], root):
        return "unknown"
    return lines[1]


def _last_json(cmd: list[str], root: str, env: dict) -> dict:
    """The JSON last output line of ``cmd`` run in the checkout ``root``."""
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """The JSON result line of one ``perfbench/run.py`` run in the checkout ``root``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    return _last_json(cmd, root, env)


def time_setup(root: str, workload: str, seed: int, seconds: float, env: dict) -> float:
    """``setup_s`` of one ``perfbench/worker.py --setup-only`` process in ``root``, in ``run.py``'s worker environment."""
    cmd = [
        sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--setup-only",
    ]
    return _last_json(cmd, root, dict(env, PYTHONHASHSEED="0", **PINNED))["setup_s"]


def time_command(root: str, argv: list[str], env: dict) -> float:
    """Wall seconds of ``pllbif argv`` run from the checkout ``root`` in an empty directory."""
    cmd = [sys.executable, "-m", "pllbif.cli", *argv]
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=tmp, env=dict(env, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True, text=True, check=False,
        )
        wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} from {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall


def verify_criteria(root: str) -> list[int]:
    """The criterion numbers in ``_CRITERIA`` of the checkout's ``pllbif.acceptance``, read as a syntax tree."""
    path = Path(root, "src", "pllbif", "acceptance.py")
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_CRITERIA"]:
            return [entry.elts[0].value for entry in node.value.elts]
    raise ValueError(f"{path} has no _CRITERIA table")


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def _ratio(pairs) -> dict | None:
    """``_stats`` of change / parent - 1 over [parent, change] pairs, leaving out a zero parent; None if none is left."""
    ratios = [c / p - 1.0 for p, c in pairs if p != 0.0]
    return _stats(ratios) if ratios else None


def _paired(runs: list[dict], slot) -> dict:
    """{workload: {metric: {seed: [a, b]}}}, each run's value at index ``slot(run)``."""
    paired: dict[str, dict[str, dict[int, list]]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            seeds = paired.setdefault(run["workload"], {}).setdefault(name, {})
            seeds.setdefault(run["seed"], [None, None])[slot(run)] = metric["value"]
    return paired


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: both sides' statistics, pairs the change won, change / parent - 1, per-seed values.

    ``runs`` holds records with ``side``, ``workload``, ``seed`` and
    ``result.metrics``; a pair is the parent and change run of one
    (workload, seed).  ``better`` maps a metric name to "lower" or "higher".
    """
    paired = _paired(runs, lambda run: SIDES.index(run["side"]))
    summary: dict = {}
    for workload, metrics in paired.items():
        for name, seeds in metrics.items():
            pairs = {s: v for s, v in sorted(seeds.items()) if None not in v}
            sign = -1.0 if better[name] == "lower" else 1.0
            summary.setdefault(workload, {})[name] = {
                "parent": _stats([p for p, _ in pairs.values()]),
                "change": _stats([c for _, c in pairs.values()]),
                "change_wins": sum(sign * (c - p) > 0.0 for p, c in pairs.values()),
                "pairs": len(pairs),
                "ratio": _ratio(pairs.values()),
                "per_seed": {str(s): v for s, v in pairs.items()},
            }
    return summary


def order_gaps(runs: list[dict]) -> dict:
    """Per workload and metric: the median of second / first - 1 over the pairs, and how often it is > 0.

    ``runs`` holds records with ``workload``, ``seed``, ``ran_first`` and
    ``result.metrics``; a pair is the two runs of one (workload, seed).
    """
    gaps: dict = {}
    for workload, metrics in _paired(runs, lambda run: 0 if run["ran_first"] else 1).items():
        for name, seeds in metrics.items():
            ratios = [b / a - 1.0 for a, b in seeds.values() if None not in (a, b) and a != 0.0]
            if ratios:
                gaps.setdefault(workload, {})[name] = {
                    "median": float(np.median(ratios)),
                    "second_higher": sum(r > 0.0 for r in ratios),
                    "pairs": len(ratios),
                }
    return gaps


def compare(path: str) -> None:
    """Print the summary of a ``BENCH_*.json`` file, its README timings and its first-versus-second gaps."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    print(f"{path}: parent {data.get('parent') or '?'}, change {data.get('change') or '?'}")
    blocks = [("", data["summary"])] + [(f"{b} ", data.get(b, {})) for b in ("readme", "verify", "setup")]
    for prefix, summary in blocks:
        for workload, metrics in summary.items():
            for name, m in metrics.items():
                p, c, r = m["parent"], m["change"], _ratio(m["per_seed"].values())
                print(f"{prefix}{workload} {name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                      f" -> change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}],"
                      f" change won {m['change_wins']} of {m['pairs']}"
                      + (f", change / parent - 1 median {r['median']:+.2%} [{r['q1']:+.2%}, {r['q3']:+.2%}]"
                         if r else ""))
    main_runs = [r for r in data["runs"] if r.get("trace", 0) == 0]
    for workload, metrics in order_gaps(main_runs).items():
        for name, g in metrics.items():
            print(f"{workload} {name}: second / first - 1 median {g['median']:+.2%},"
                  f" second higher in {g['second_higher']} of {g['pairs']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_root", nargs="?")
    ap.add_argument("change_root", nargs="?")
    ap.add_argument("--workload", action="append", choices=("orbit", "network", "analysis"))
    ap.add_argument("--seeds", help="A:B, both ends included")
    ap.add_argument("--trace-seeds", default=None, help="A:B, pairs at --trace 1")
    ap.add_argument("--out")
    ap.add_argument("--compare", metavar="FILE", help="print the summary of a BENCH file and stop")
    args = ap.parse_args(argv)
    if args.compare:
        compare(args.compare)
        return 0
    missing = [name for name in ("parent_root", "change_root", "workload", "seeds", "out") if not getattr(args, name)]
    if missing:
        ap.error(f"missing {', '.join(missing)} (or give --compare FILE)")
    try:
        sets = [("main", 0, _seeds(args.seeds))]
        if args.trace_seeds is not None:
            sets.append(("traced", 1, _seeds(args.trace_seeds)))
    except ValueError as exc:
        ap.error(str(exc))

    roots = {"parent": os.path.abspath(args.parent_root), "change": os.path.abspath(args.change_root)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = float(spec["run_seconds"])

    # the commands timed after each --trace 0 pair, by output block and key
    timed = {
        "readme": {" ".join(argv): argv for argv in readme_commands(Path(roots["change"], "README.md"))},
        "verify": {f"--only {k}": ["verify", "--only", str(k)] for k in verify_criteria(roots["change"])},
    }
    runs: list[dict] = []
    timed_runs: dict[str, list[dict]] = {block: [] for block in (*timed, "setup")}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    pair = 0
    for name, trace, seeds in sets:
        for workload in args.workload:
            for seed in seeds:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                pair += 1
                for side in order:
                    result = run_once(roots[side], workload, seed, seconds, trace, env)
                    runs.append({
                        "set": name, "side": side, "workload": workload, "seed": seed,
                        "trace": trace, "ran_first": side == order[0], "result": result,
                    })
                    wall = result["metrics"].get("wall_s", {}).get("value")
                    print(f"{name} {workload} seed={seed} {side}: "
                          + (f"wall_s {wall:.4f}" if wall is not None else "traced"), flush=True)
                if trace:
                    continue
                for side in order:
                    setup = time_setup(roots[side], workload, seed, seconds, env)
                    timed_runs["setup"].append({
                        "side": side, "workload": workload, "seed": seed,
                        "result": {"metrics": {"setup_s": {"value": setup}}},
                    })
                for block, commands in timed.items():
                    for key, argv in commands.items():
                        for side in order:
                            wall = time_command(roots[side], argv, env)
                            timed_runs[block].append({
                                "side": side, "workload": key, "seed": pair,
                                "result": {"metrics": {"wall_s": {"value": wall}}},
                            })

    out = {
        "change": "",
        "parent": _revision(roots["parent"]),
        "machine": {"cpu_count": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__},
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace T; "
                   "each run's last output line is stored under result",
        "method": "tools/bench.py: parent and change checkouts, one run at a time, pairs in ABBA order "
                  "(ran_first), the same environment on both sides with PYTHONDONTWRITEBYTECODE=1. "
                  f"Set main at --trace 0 on seeds {args.seeds}"
                  + (f"; set traced at --trace 1 on seeds {args.trace_seeds}" if args.trace_seeds else "")
                  + ". After each main pair, perfbench/worker.py --setup-only (run.py's worker "
                  "environment) once per side in the pair's order, its setup_s under setup by seed; "
                  "then each README command and then pllbif verify --only K for "
                  "each criterion K (python3 -m pllbif.cli, an empty directory) once per side in the "
                  "pair's order, under readme and verify by pair number."
                  " Quartiles are numpy linear-interpolation percentiles; ratio holds those of "
                  "change / parent - 1 over the pairs.",
        "claim": "",
        "summary": summarize([r for r in runs if r["set"] == "main"], better),
        "traced": summarize([r for r in runs if r["set"] == "traced"], better),
        "readme": summarize(timed_runs["readme"], better),
        "verify": summarize(timed_runs["verify"], better),
        "setup": summarize(timed_runs["setup"], better),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
