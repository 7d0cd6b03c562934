"""Seeded benchmark of pllbif: the orbit, network and analysis workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 35 --trace 0

Each workload runs in its own single-threaded worker process (worker.py) with
BLAS and OpenMP pinned to one thread.  The worker repeats passes over the same
seeded inputs for about ``--seconds`` and checks every output; this script adds
set-up samples from further worker processes and prints a human-readable
report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json
(mean pass time, median set-up time, peak memory, share of operations that
succeeded); with ``--trace 1`` they are the per-layer ones, read from traced
passes that alternate with untraced ones.  ``correct`` is false when a check
never ran, an operation failed for a cause not traced to a known defect
(see ``workloads.KNOWN_CAUSES``), or two passes over the same inputs gave
different outcomes.  ``attempted`` and ``failed`` count each operation of a
pass once, failed if it failed in any pass, so they depend only on the seed.
``--size tiny`` shrinks every workload for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("orbit", "network", "analysis")
SETUP_SAMPLES = 5  # the main worker's own, plus four set-up-only processes
DEADLINE_S = 170.0
PINNED = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def _spec() -> dict:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha(root: str) -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pllbif", "__init__.py")):
        print("perfbench: run from the root of a pllbif checkout (src/pllbif is missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    spec = _spec()
    try:
        setups = [
            _worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        res = _worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    attempted, failed = res["attempted"], res["failed"]
    correct = not res["unknown_causes"] and not res["skipped_checks"] and res["passes_agree"]
    if args.trace:
        values = res["layers"]
        table = spec["per_layer"]
    else:
        values = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        table = spec["end_to_end"]
    missing = [m["name"] for m in table if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}

    env = res["env"] | {"git_sha": _git_sha(root), "seed": args.seed, "inputs_sha256": res["inputs_sha256"]}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    print("passes " + " ".join(f"{w:.4f}" for w in res["walls"]) + " s (library time, untraced)")
    if args.trace:
        print("traced passes " + " ".join(f"{w:.4f}" for w in res["traced_walls"]) + " s")
    else:
        print(f"sim_units_per_s {res['sim_units'] / res['wall_s']:.6g} units/s" if res["sim_units"] else "sim_units_per_s n/a (no integration)")
    print(f"fail_ratio {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    for cause, count in sorted(res["causes"].items()):
        kind = "new defect" if cause in res["unknown_causes"] else "known defect"
        print(f"  failure {count}x {cause} ({kind})")
    if not res["passes_agree"]:
        print("passes over the same inputs gave different outcomes")
    if res["skipped_checks"]:
        print("skipped checks: " + ", ".join(res["skipped_checks"]))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
