"""One workload in one single-threaded process; started by run.py.

The parent pins BLAS and OpenMP to one thread in this process's environment
before numpy is imported.  ``--setup-only`` measures set-up (importing pllbif
and generating the seeded inputs) and exits; otherwise the worker runs passes
until ``--seconds`` would be exceeded and prints one JSON object with the raw
figures as its last line.  In a traced run, untraced and traced passes
alternate, so the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _env_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "process_threads": threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import workloads as wl

    make_inputs, run_pass, checks = wl.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.size)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer, layer_metrics

        tracer = Tracer()
    total = wl.Tally(checks)
    walls = {False: [], True: []}  # library seconds per pass, by traced
    elapsed = {False: [], True: []}  # real seconds per pass, by traced
    layer_runs: list[dict] = []
    sim_units = 0.0
    t_loop = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[True]) < len(walls[False])
        if traced:
            tracer.reset()
            tracer.install()
        tally = wl.Tally(checks)
        t0 = time.perf_counter()
        try:
            with tally.op("pass"):  # a failure outside every operation still counts
                run_pass(inputs, tally)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_runs.append(layer_metrics(tracer) | {"phasemodel.bad_births": tally.bad_births})
        total.merge(tally)
        walls[traced].append(tally.lib_s)
        elapsed[traced].append(time.perf_counter() - t0)
        sim_units = tally.sim_units
        nxt = tracer is not None and len(walls[True]) < len(walls[False])
        done = walls[False] and (tracer is None or walls[True])
        spent = time.perf_counter() - t_loop
        if done and spent + statistics.median(elapsed[nxt]) > args.seconds:
            break

    # The mean over passes: the host's speed shifts between regimes within a
    # run, and the mean weighs them by time where the median jumps between them.
    wall = statistics.mean(walls[False])
    result = {
        "setup_s": setup_s,
        "walls": walls[False],
        "wall_s": wall,
        "sim_units": sim_units,
        "attempted": total.attempted,
        "failed": total.failed,
        "causes": total.causes,
        "unknown_causes": total.unknown_causes,
        "passes_agree": total.passes_agree,
        "skipped_checks": total.skipped,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs_sha256": wl.input_hash(inputs),
        "env": _env_info(),
    }
    if tracer is not None:
        layers = {}
        for key in layer_runs[0]:
            vals = [run[key] for run in layer_runs]
            layers[key] = vals[-1] if isinstance(vals[-1], int) else statistics.median(vals)
        layers["bench.trace_overhead"] = statistics.mean(walls[True]) / wall - 1.0
        layers["bench.sim_units_per_s"] = sim_units / wall
        result["layers"] = layers
        result["traced_walls"] = walls[True]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
