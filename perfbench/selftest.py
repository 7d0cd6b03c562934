"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at the tiny size with tracing off and on, and fails
(exit code 1) if a named metric is missing or carries the wrong unit, if the
result line has other keys than expected, if a check was skipped or a run is
incorrect, if one seed does not produce the same input hash twice or the same
attempted and failed counts in two runs, or if the benchmark prints a result
where there is no pllbif source to run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int, seed: int) -> tuple[list[str], str | None]:
    errs, digest, _ = _check_run(spec, workload, trace, seed)
    return errs, digest


def check_repeat(spec: dict, workload: str, seed: int) -> list[str]:
    """Two runs of one seed must attempt, and fail, the same operations."""
    counts = [_check_run(spec, workload, 0, seed)[2] for _ in range(2)]
    if counts[0] != counts[1]:
        return [f"{workload}: seed {seed} gave attempted/failed {counts[0]} and then {counts[1]}"]
    return []


def _check_run(spec: dict, workload: str, trace: int, seed: int):
    proc = run(workload, seed, trace)
    tag = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}"], None, None
    res = json.loads(lines[-1])
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"{tag}: result keys {sorted(res)}")
    if res.get("correct") is not True:
        errs.append(f"{tag}: incorrect run:\n" + "\n".join(lines[:-1]))
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1 and isinstance(res.get("failed"), int)):
        errs.append(f"{tag}: attempted/failed {res.get('attempted')}/{res.get('failed')}")
    if any(line.startswith("skipped checks:") for line in lines):
        errs.append(f"{tag}: a check was skipped")
    table = spec["per_layer"] if trace else spec["end_to_end"]
    got = res.get("metrics", {})
    if set(got) != {m["name"] for m in table}:
        errs.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in table})}")
    for m in table:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        if entry.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            errs.append(f"{tag}: metric {m['name']} = {entry}")
    env = next((line for line in lines if line.startswith("env ")), None)
    digest = json.loads(env[4:])["inputs_sha256"] if env else None
    return errs, digest, (res.get("attempted"), res.get("failed"))


def check_inputs(workloads: list[str], hashes: dict) -> list[str]:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads as wl

    errs = []
    for name in workloads:
        make = wl.WORKLOADS[name][0]
        first, second = (wl.input_hash(make(7, "tiny")) for _ in range(2))
        if first != second or first != hashes.get(name):
            errs.append(f"{name}: seed 7 gave input hashes {first}, {second}, {hashes.get(name)}")
        if name != "orbit" and wl.input_hash(make(8, "tiny")) == first:
            errs.append(f"{name}: seeds 7 and 8 gave the same inputs")
    return errs


def check_refuses_bare_dir() -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("network", 1, 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run without pllbif sources exited {proc.returncode} with output {proc.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errs = []
    names = [w["name"] for w in spec["workloads"]]
    hashes = {}
    for name in names:
        for trace in (0, 1):
            found, digest = check_run(spec, name, trace, seed=7)
            errs += found
            hashes.setdefault(name, digest)
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
    errs += check_repeat(spec, "analysis", seed=7)
    errs += check_inputs(names, hashes)
    errs += check_refuses_bare_dir()
    for err in errs:
        print(err, file=sys.stderr)
    print("selftest " + ("passed" if not errs else f"failed ({len(errs)} problems)"))
    return 1 if errs else 0


if __name__ == "__main__":
    raise SystemExit(main())
