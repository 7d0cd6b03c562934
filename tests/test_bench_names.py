"""The names and call shapes the benchmark uses still exist, so a deletion fails here first.

Reads perfbench/workloads.py and BENCHMARK.json as text or syntax trees;
imports neither.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pllbif
from pllbif import cli

ROOT = Path(__file__).resolve().parents[1]


def workloads_text():
    return (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")


def test_workloads_call_only_package_names():
    names = set(re.findall(r"\bpb\.([A-Za-z_]\w*)", workloads_text()))
    assert len(names) >= 20
    assert sorted(n for n in names if not hasattr(pllbif, n)) == []


def package_name(node):
    # NAME of an expression ``pb.NAME``, else None
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pb":
        return node.attr
    return None


def package_calls(tree):
    """(name, positional arguments, keyword arguments, line) of each ``pb.NAME(...)``
    and ``tally.call(pb.NAME, ...)`` call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = package_name(node.func)
        if name is not None:
            yield name, node.args, node.keywords, node.lineno
        elif (
            isinstance(node.func, ast.Attribute) and node.func.attr == "call"
            and node.args and package_name(node.args[0]) is not None
        ):
            yield package_name(node.args[0]), node.args[1:], node.keywords, node.lineno


def test_workloads_call_the_package_with_its_signatures():
    calls = list(package_calls(ast.parse(workloads_text())))
    assert len(calls) >= 20
    errors = []
    for name, args, keywords, line in calls:
        # a call that unpacks its arguments has no shape to check
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in keywords):
            continue
        try:
            inspect.signature(getattr(pllbif, name)).bind(*args, **{k.arg: k for k in keywords})
        except TypeError as err:
            errors.append(f"line {line}: pb.{name}: {err}")
    assert errors == []


def test_workloads_evaluate_blocks_with_the_eval_signature():
    # a block's method has no ``pb.`` prefix: bind each ``blk.eval(...)`` call
    # to ``QuasiPolynomial.eval``, with None standing in for the block
    calls = [
        node
        for node in ast.walk(ast.parse(workloads_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "eval"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "blk"
    ]
    assert len(calls) >= 1
    signature = inspect.signature(pllbif.QuasiPolynomial.eval)
    errors = []
    for node in calls:
        try:
            signature.bind(None, *node.args, **{k.arg: k for k in node.keywords})
        except TypeError as err:
            errors.append(f"line {node.lineno}: blk.eval: {err}")
    assert errors == []


def test_workload_cli_flags_are_options_of_their_commands():
    tree = ast.parse(workloads_text())
    [func] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_cli_commands"]
    [ret] = [n for n in ast.walk(func) if isinstance(n, ast.Return)]
    assert len(ret.value.elts) >= 6
    unknown = []
    for argv in ret.value.elts:
        # f-string values are skipped; every flag is a plain string
        words = [e.value for e in argv.elts if isinstance(e, ast.Constant)]
        flags = {opt.flag for opt in cli._COMMANDS[words[0]][2]}
        unknown += [f"{words[0]} {w}" for w in words[1:] if w.startswith("--") and w not in flags]
    assert unknown == []


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
