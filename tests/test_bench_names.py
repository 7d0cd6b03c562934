"""The names the benchmark calls still exist, so a deletion fails here first.

Reads perfbench/workloads.py and BENCHMARK.json as text; imports neither.
"""

import importlib
import json
import re
from pathlib import Path

import pllbif

ROOT = Path(__file__).resolve().parents[1]


def test_workloads_call_only_package_names():
    text = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bpb\.([A-Za-z_]\w*)", text))
    assert len(names) >= 20
    assert sorted(n for n in names if not hasattr(pllbif, n)) == []


def test_layer_metrics_name_public_functions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = [m["name"].split(".") for m in bench["per_layer"] if m["name"].count(".") == 2]
    assert len(traced) >= 20
    missing = [
        ".".join(parts)
        for parts in traced
        if parts[1] not in importlib.import_module(f"pllbif.{parts[0]}").__all__
    ]
    assert missing == []
