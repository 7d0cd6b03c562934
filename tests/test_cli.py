"""Command-line interface, exercised in process through main(argv)."""

import importlib.util
import inspect
import json
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pllbif import BlockKind, Branch, ModelKind, NetworkParams, build_blocks, cli, equilibrium
from pllbif.cli import main
from pllbif.errors import NotPeriodicError


def run(argv):
    return main([str(a) for a in argv])


def read(path):
    return path.read_text(encoding="utf-8")


def meta_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"# {key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"meta line {key!r} missing")


def test_no_command_prints_help(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err.lower()
    for command in cli._COMMANDS:
        assert run([command, "--help"]) == 0
        assert "(default: " in capsys.readouterr().out


def test_zero_roots_to_stdout(capsys):
    assert run(["zero-roots", "--K", "0.8", "--mu", "0.5", "--n", "0:6"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "tau,n,delta0,omega_hat"
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(2.6179938779914944, abs=1e-12)
    assert first[1] == "1"
    # full precision serialization, repr round trip
    assert first[0] == repr(2.6179938779914944)


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["releq", "--K", "1", "--tau-window", "0:8"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert read(a) == read(b)
    assert read(a).startswith("# n_nodes = 2\n")
    # a window start of -0 is the delay 0, in the summary line too
    c = tmp_path / "c.csv"
    assert run(["releq", "--K", "1", "--tau-window=-0:8", "--out", c]) == 0
    assert read(c) == read(a)
    assert capsys.readouterr().out.splitlines()[-1].endswith(" on [0, 8]")


RATES = {"--K", "--mu", "--mu-grid", "--k-grid", "--omega-hat"}
TIMES = {"--tau", "--tau-window", "--tau-grid", "--tau-max", "--t-end", "--step"}


def at_omega_m(argv, wm):
    """``argv`` (at omega_m = 1) for free-running frequency ``wm``: rates times wm, times over wm.

    A grid's last field is its count and stays.  With wm a power of 2 every
    value scales exactly, so the CLI's rescaling returns the original floats.
    """
    out = [argv[0], "--omega-m", repr(wm)]
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag in RATES or flag in TIMES:
            fields = value.split(":")
            scaled = fields[:-1] if flag.endswith("-grid") else fields
            factor = wm if flag in RATES else 1.0 / wm
            value = ":".join([repr(float(v) * factor) for v in scaled] + fields[len(scaled):])
        out += [flag, value]
    return out


OMEGA_M_CASES = {
    "curves": ["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:5", "--tau-max", "30"],
    "rightmost": ["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:6:4"],
    "snmap": ["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:25"],
    "snmap-phase": ["snmap", "--model", "phase", "--K", "1", "--mu", "1", "--tau-window", "0:8"],
    "releq": ["releq", "--K", "1", "--tau-window", "0:8"],
    "zero-roots": ["zero-roots", "--K", "0.8", "--mu", "0.5", "--n", "0:6"],
    "phasediff-check": ["phasediff-check", "--K", "1.05", "--mu", "0.3", "--tau", "2",
                        "--samples", "20"],
    "simulate": ["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "20",
                 "--step", "0.25", "--perturb", "sync", "--amplitude", "0.01"],
    "simulate-omega-hat": ["simulate", "--model", "phase-rotating-frame", "--K", "1.05",
                           "--mu", "0.3", "--tau", "2", "--t-end", "10", "--omega-hat", "0.9",
                           "--classify", "no"],
}


@pytest.mark.parametrize("argv", OMEGA_M_CASES.values(), ids=OMEGA_M_CASES.keys())
def test_normalization_happens_at_the_boundary(tmp_path, capsys, argv):
    # a network and its image at another free-running frequency emit identical output
    written = []
    for wm, args in ((1.0, argv), (2.0, at_omega_m(argv, 2.0))):
        csv, svg = tmp_path / f"{wm}.csv", tmp_path / f"{wm}.svg"
        chart = [] if args[0] == "phasediff-check" else ["--svg", svg]  # the one command without one
        assert run([*args, "--out", csv, *chart]) == 0, args
        written.append((capsys.readouterr(), read(csv), chart and read(svg)))
    assert written[0] == written[1]
    assert meta_value(written[1][1], "omega_m") == "1"


def test_snmap_matches_frozen_crossings(tmp_path):
    out = tmp_path / "s.csv"
    assert (
        run(
            ["snmap", "--nodes", "2", "--K", "1.05", "--mu", "0.3",
             "--tau-window", "0:25", "--block", "fix", "--eq", "minus", "--out", out]
        )
        == 0
    )
    rows = [l.split(",") for l in read(out).splitlines() if l and not l.startswith("#")][1:]
    taus = [float(r[0]) for r in rows]
    assert taus == pytest.approx(
        [6.340163143301263, 11.001518289255412, 15.409742936553585,
         23.51406478836134, 24.47932272980588],
        abs=1e-6,
    )
    assert [r[5] for r in rows] == ["1", "-1", "1", "-1", "1"]


@pytest.mark.parametrize("block", ["fix", "standard"])
def test_phase_crossings_name_the_releq_branch_that_holds_their_delay(tmp_path, block):
    window = ["--tau-window", "0:15.7"]
    r, s = tmp_path / "r.csv", tmp_path / "s.csv"
    assert run(["releq", "--K", "1", *window, "--out", r]) == 0
    assert run(["snmap", "--model", "phase", "--K", "1", "--mu", "1", "--block", block, *window,
                "--out", s]) == 0
    spans = {}
    for row in [l.split(",") for l in read(r).splitlines() if l and not l.startswith("#")][1:]:
        spans.setdefault(int(row[0]), []).append(float(row[2]))
    rows = [l.split(",") for l in read(s).splitlines() if l and not l.startswith("#")][1:]
    assert rows
    for row in rows:
        taus = spans[int(row[0])]
        assert min(taus) - 1e-9 <= float(row[1]) <= max(taus) + 1e-9


def test_svg_written_alongside_csv(tmp_path):
    out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    assert run(["releq", "--K", "1", "--tau-window", "0:8", "--out", out, "--svg", svg]) == 0
    assert read(svg).startswith("<svg ")
    assert "</svg>" in read(svg)


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 1.2, "mu": 0.5, "n": "0:6"}), encoding="utf-8")
    out = tmp_path / "o.csv"
    # flag beats config value
    assert run(["zero-roots", "--config", cfg, "--K", "0.8", "--out", out]) == 0
    text = read(out)
    assert float(meta_value(text, "K")) == 0.8
    assert float(meta_value(text, "mu")) == 0.5


def test_config_must_be_a_json_object(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert run(["zero-roots", "--config", cfg]) == 2
    cfg.write_text("{not json", encoding="utf-8")
    assert run(["zero-roots", "--config", cfg]) == 2


def test_config_values_must_be_numeric(tmp_path, capsys):
    # wrong-typed values bypass argparse, so the coercion must catch them
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"K": [1, 2]}), encoding="utf-8")
    assert run(["snmap", "--config", cfg, "--tau-window", "0:25"]) == 2
    assert "--K expects a number" in capsys.readouterr().err
    cfg.write_text(json.dumps({"nodes": "many", "K": 1.05, "mu": 0.3}), encoding="utf-8")
    assert run(["snmap", "--config", cfg, "--tau-window", "0:25"]) == 2
    assert "--nodes expects a number" in capsys.readouterr().err


def test_verify_only_rejects_non_integers(capsys):
    assert run(["verify", "--only", "6,foo"]) == 2
    assert "--only" in capsys.readouterr().err


def test_domain_error_exits_one(capsys):
    # no phase-locked state below unit normalized coupling
    code = run(["simulate", "--nodes", "2", "--K", "0.9", "--mu", "0.3",
                "--tau", "2", "--t-end", "10"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert run(["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2"]) == 2  # no --t-end
    assert run(["snmap", "--K", "1.05", "--mu", "0.3"]) == 2  # no --tau-window
    capsys.readouterr()


def test_mistyped_perturbation_never_passes_silently(capsys):
    # even with amplitude 0 the direction spec must parse
    code = run(["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2",
                "--t-end", "10", "--perturb", "wiggle"])
    assert code == 2
    assert "--perturb" in capsys.readouterr().err


def test_simulate_classifies_synchronized_ringdown(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = run(["simulate", "--nodes", "2", "--K", "1.05", "--mu", "0.3",
                "--tau", "2", "--t-end", "60", "--perturb", "sync",
                "--amplitude", "0.01", "--classify", "no", "--out", out])
    assert code == 0
    text = read(out)
    assert text.splitlines()[-1].split(",")[0] == "60"
    assert meta_value(text, "perturb") == "sync"


def test_verify_subset(capsys):
    assert run(["verify", "--only", "6,10"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    assert "2/2 criteria passed" in out


def assert_usage_error(capsys, argv, needle):
    # exit 2 with a single-line message; a traceback would escape main()
    assert run(argv) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert needle in err


def test_zero_nodes_is_rejected_not_replaced(capsys):
    assert_usage_error(capsys, ["zero-roots", "--K", "0.8", "--mu", "0.5", "--nodes", "0"], "--nodes")


def test_zero_omega_m_is_rejected_not_replaced(capsys):
    assert_usage_error(capsys, ["zero-roots", "--K", "0.8", "--mu", "0.5", "--omega-m", "0"], "--omega-m")


@pytest.mark.parametrize(
    "argv, flag",
    [
        # a window whose locked branches hold more than 2^20 grid samples
        (["releq", "--K", "1", "--tau-window", "0:1e4"], "budget"),
        (["zero-roots", "--K", "0.8", "--mu", "0.5", "--nodes", "2.5"], "--nodes"),
        (["phasediff-check", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--seed", "x"], "--seed"),
        (["phasediff-check", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--seed", "-1"], "--seed"),
        (["phasediff-check", "--nodes", "3", "--K", "1.05", "--mu", "0.075", "--tau", "9.5",
          "--c-const", "nan"], "--c-const"),
        (["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "10",
          "--model", "phase-difference", "--c-const", "inf"], "--c-const"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:inf:3"], "--tau-grid"),
        (["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "nan"], "--t-end"),
        (["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "10", "--step", "nan"],
         "--step"),
        (["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:inf"], "--tau-window"),
        (["releq", "--K", "1", "--tau-window", "0:nan"], "--tau-window"),
        (["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:5", "--tau-max", "-3"], "--tau-max"),
        (["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:5", "--tau-max", "nan"], "--tau-max"),
        (["zero-roots", "--K", "0.8", "--mu", "0.5", "--n", "5:2"], "--n"),
        # a negative delay makes the quasi-polynomial advanced: no certificate exists
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid=-1:1:3"], "--tau-grid"),
        (["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window=-30:-1"], "--tau-window"),
        (["releq", "--K", "1", "--tau-window=-5:2"], "--tau-window"),
        # every symmetry defect is >= 0 and would fail a tolerance <= 0
        (["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "10", "--tol", "0"],
         "--tol"),
        (["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "10", "--tol=-1"],
         "--tol"),
        # counts past the float budget of one run (numpy would refuse these
        # before allocating; smaller absurd counts would really allocate)
        (["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:1000000000000000"], "--mu-grid"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:25:1000000000000000"],
         "--tau-grid"),
        # delay windows whose branch samples, phase pieces or crossing brackets
        # pass the budget; the samples are counted before any branch is solved
        (["snmap", "--model", "phase", "--K", "1", "--mu", "1", "--tau-window", "0:1e6"], "budget"),
        (["releq", "--K", "1", "--tau-window", "0:1e300"], "budget"),
        (["phasediff-check", "--K", "1.05", "--mu", "0.3", "--tau", "2",
          "--samples", "1000000000000000"], "--samples"),
        (["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:1e300"], "budget"),
        (["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:3", "--n", "0:1000000000000000"],
         "--n"),
        (["zero-roots", "--K", "0.8", "--mu", "0.5", "--n", "0:1000000000000000"], "--n"),
        (["snmap", "--model", "phase", "--K", "1", "--mu", "1", "--tau-window", "0:1e300"], "budget"),
        (["phasediff-check", "--K", "1.05", "--mu", "0.3", "--tau", "1e300"], "budget"),
        (["simulate", "--model", "phase-rotating-frame", "--K", "1.05", "--mu", "0.3",
          "--tau", "1e300", "--t-end", "1"], "budget"),
        # the constant blocks' crossings are counted in closed form before any is built
        (["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:1e9"], "budget"),
        (["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:1e8"], "budget"),
        # the branch samples of this window pass their budget before the scan's
        # one bracket budget is reached (test_snmap checks that one)
        (["snmap", "--model", "phase", "--K", "1", "--mu", "1", "--tau-window", "0:1e4"], "budget"),
        # curve rows and zero-root events are counted before any is built
        (["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:41", "--n", "0:20000"], "budget"),
        (["zero-roots", "--K", "1", "--mu", "0.5", "--n", "0:100000000"], "budget"),
        # the difference model closes only for 2 or 3 nodes
        (["simulate", "--model", "phase-difference", "--nodes", "4", "--K", "1.05", "--mu", "0.3",
          "--tau", "2", "--t-end", "10"], "--nodes"),
    ],
)
def test_bad_number_flag_is_one_line(capsys, argv, flag):
    # flags go through the same numeric checks as config values
    assert_usage_error(capsys, argv, flag)


def test_zero_transient_discards_nothing(monkeypatch):
    seen = []

    def record(traj, fraction):
        seen.append(fraction)
        raise NotPeriodicError("recorded")

    monkeypatch.setattr(cli, "period_estimate", record)
    assert run(["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "4",
                "--transient", "0"]) == 0
    assert seen == [0.0]


def test_isotypic_index_must_be_an_integer(capsys):
    assert_usage_error(
        capsys,
        ["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "10",
         "--perturb", "isotypic:x"],
        "--perturb",
    )


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"K": 0.8, "mu": 0.5, "tua": 5}), encoding="utf-8")
    assert_usage_error(capsys, ["zero-roots", "--config", cfg], "'tua'")


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["snmap", "--model", "foo", "--K", "1", "--mu", "1", "--tau-window", "0:5"], "--model"),
        (["snmap", "--model", "phase", "--eq", "foo", "--K", "1", "--mu", "1",
          "--tau-window", "0:5"], "--eq"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:1:3", "--certify", "maybe"],
         "--certify"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:1:3", "--scheme", "secant"],
         "--scheme"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:1:3", "--block", "all"],
         "--block"),
        (["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "10",
          "--classify", "maybe"], "--classify"),
        (["zero-roots", "--K", "0.8", "--mu", "0.5", "--bogus", "1"], "--bogus"),
        # flags that changed nothing are unknown now, abbreviations included
        (["zero-roots", "--K", "0.8", "--mu", "0.5", "--tau", "5"], "--tau"),
        (["releq", "--K", "1", "--tau-window", "0:8", "--tau", "5"], "--tau"),
        (["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:25", "--tau", "5"], "--tau"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--tau-grid", "0:1:3"], "--tau"),
        (["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:5", "--tau", "5"], "--tau"),
        (["phasediff-check", "--nodes", "3", "--K", "1.05", "--mu", "0.075", "--tau", "9.5",
          "--svg", "x.svg"], "--svg"),
        (["verify", "--out", "v.csv"], "--out"),
        (["verify", "--svg", "v.svg"], "--svg"),
        (["curves", "--K", "9", "--mu", "0.3", "--k-grid", "1:2:3"], "--K"),
        (["curves", "--K", "1.05", "--mu", "9", "--mu-grid", "0.05:0.45:5"], "--mu"),
        (["verify", "--only", "6,99"], "99"),
        # options that had one value in use are unknown now
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:1:3", "--scheme", "newton"],
         "--scheme"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:1:3", "--certify", "yes"],
         "--certify"),
        (["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:1:3", "--model", "full-phase"],
         "--model"),
        (["curves", "--K", "1.05", "--mu-grid", "0.05:0.45:5", "--model", "full-phase"], "--model"),
        # --step tau/DIV gives the grid --step-div DIV gave
        (["simulate", "--K", "1.05", "--mu", "0.3", "--tau", "2", "--t-end", "10",
          "--step-div", "4"], "--step-div"),
        # the locked branches depend on K alone
        (["releq", "--K", "1", "--tau-window", "0:8", "--nodes", "3"], "--nodes"),
        (["releq", "--K", "1", "--tau-window", "0:8", "--mu", "0.5"], "--mu"),
        # a node pair or component the network lacks
        *(
            (["simulate", "--nodes", "2", "--K", "1.05", "--mu", "0.3", "--tau", "2",
              "--t-end", "50", "--amplitude", "0.1", "--perturb", spec], "--perturb")
            for spec in ("pair:1,3", "pair:1,1", "isotypic:5", "isotypic:0:imag")
        ),
        # the crossing-map scan has one fixed grid and no sampling knob
        (["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:25", "--grid-step", "0.01"],
         "--grid-step"),
        (["snmap", "--model", "phase", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:25",
          "--resolution", "300"], "--resolution"),
        # the locked branches have one fixed grid and one numbering
        (["releq", "--K", "1", "--tau-window", "0:8", "--resolution", "300"], "--resolution"),
    ],
)
def test_bad_choice_or_unknown_flag_is_one_line(capsys, argv, needle):
    assert_usage_error(capsys, argv, needle)


@pytest.mark.parametrize("key", ["k", "coupling"])
def test_config_keys_are_flag_names(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau-window": "0:8", "omega_m": 1}), encoding="utf-8")
    assert run(["releq", "--config", cfg, "--K", "1", "--out", tmp_path / "r.csv"]) == 0
    cfg.write_text(json.dumps({key: 0.8, "mu": 0.5}), encoding="utf-8")
    assert_usage_error(capsys, ["zero-roots", "--config", cfg], repr(key))


@pytest.mark.parametrize("nodes", [2, 3])
def test_phasediff_check_fails_on_nan_residual(monkeypatch, capsys, nodes):
    # max() would drop the NaN and report PASS
    nan = SimpleNamespace(eval=lambda z, tau: math.nan)
    real_blocks = cli.build_blocks

    def nan_difference_blocks(kind, p, point):
        if kind is ModelKind.PHASE_DIFFERENCE:
            return SimpleNamespace(fix=nan, standard=nan)
        return real_blocks(kind, p, point)

    monkeypatch.setattr(cli, "build_blocks", nan_difference_blocks)
    monkeypatch.setattr(cli, "determinant_n3", lambda p, c, z: math.nan)
    argv = ["phasediff-check", "--nodes", nodes, "--K", "1.05", "--mu", "0.075", "--tau", "9.5"]
    assert run(argv) == 1
    summary = capsys.readouterr().err
    assert "error nan" in summary or "mismatch nan" in summary
    assert "FAIL" in summary


def load_readme_outputs():
    path = Path(__file__).resolve().parents[1] / "tools" / "readme_outputs.py"
    spec = importlib.util.spec_from_file_location("readme_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_outputs_script_finds_the_seven_commands():
    commands = load_readme_outputs().readme_commands()
    assert [argv[0] for argv in commands] == [
        "curves", "rightmost", "snmap", "releq", "zero-roots", "phasediff-check", "simulate",
    ]
    # the continuation line of the simulate command is joined
    assert commands[-1][-4:] == ["--classify", "no", "--out", "sim.csv"]


def test_readme_outputs_script_keeps_streams_code_and_files(tmp_path):
    tool = load_readme_outputs()
    argv = ["zero-roots", "--K", "0.8", "--mu", "0.5", "--out", "z.csv", "--svg", "z.svg"]
    assert tool.capture(argv, tmp_path / "run") == 0
    files = {f.name: f.read_text(encoding="utf-8") for f in (tmp_path / "run").iterdir()}
    assert sorted(files) == ["exit_code", "stderr", "stdout", "z.csv", "z.svg"]
    assert files["exit_code"] == "0\n"
    assert files["stdout"] == "zero-roots: 7 events, first at tau = 2.61799\n"
    assert files["z.csv"].startswith("# n_nodes = 2\n")


def test_readme_outputs_script_strips_verify_timings():
    strip = load_readme_outputs().strip_timings
    text = (
        "[PASS]  1 crossing delays: crossings 6.3402(+); 2 ms (0.00s)\n"
        "[PASS]  2 boundary: mu_max = 0.421126 (want 0.4211 +- 0.0005) (0.00s)\n"
        "[PASS]  4 orbit: T = 24.1895, residual 5.15e-08; 0.8 s (0.83s)\n"
        "[PASS] 12 integrator: order 3.96; drift 0.0e+00 (12.06s)\n"
        "12/12 criteria passed\n"
    )
    assert strip(text) == (
        "[PASS]  1 crossing delays: crossings 6.3402(+)\n"
        "[PASS]  2 boundary: mu_max = 0.421126 (want 0.4211 +- 0.0005)\n"
        "[PASS]  4 orbit: T = 24.1895, residual 5.15e-08\n"
        "[PASS] 12 integrator: order 3.96; drift 0.0e+00\n"
        "12/12 criteria passed\n"
    )


def test_csv_rows_are_written_as_each_value_formats_alone(tmp_path):
    # one %-format per row must write what formatting each value alone writes
    values = [
        (True, "1"), (np.True_, "True"), (False, "0"), (3, "3"), (np.int64(-7), "-7"),
        (np.uint8(255), "255"), (0.1, "0.10000000000000001"), (np.float64(1 / 3), "0.33333333333333331"),
        (np.float32(0.1), "0.10000000149011612"), (math.nan, "nan"), (math.inf, "inf"),
        (-math.inf, "-inf"), (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
        ("a b", "a b"), (BlockKind.FIX, "BlockKind.FIX"),
    ]
    assert [cli._fmt(v) for v, _ in values] == [text for _, text in values]
    rows = [[v for v, _ in values], [v for v, _ in values[::-1]], [1.5, 2, "x"], [2.5, 3, "y"], []]
    out = tmp_path / "rows.csv"
    cli._emit(SimpleNamespace(svg=None, out=str(out)), [("K", 1.05), ("n", 3)], ["h"], rows, "done")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[:3] == ["# K = 1.05", "# n = 3", "h"]
    assert lines[3:] == [",".join(cli._fmt(v) for v in row) for row in rows]


def test_every_option_is_read():
    # an option no code reads changes nothing; each command's handler, or the
    # shared _network and _emit, must name every dest of its table
    shared = inspect.getsource(cli._network) + inspect.getsource(cli._emit)
    for command, (func, _, table) in cli._COMMANDS.items():
        source = inspect.getsource(func) + shared
        unread = [opt.flag for opt in table if not re.search(rf"\bo\.{opt.dest}\b", source)]
        assert unread == [], command


def test_rightmost_overflow_at_huge_delays_is_one_line(capsys):
    # e^{-lambda tau} overflows for every seed at tau = 5e5 and 1e6
    argv = ["rightmost", "--K", "1.05", "--mu", "0.3", "--tau-grid", "0:1e6:3"]
    assert run(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.splitlines() == ["error: no seed converged on the quasi-polynomial"]


def test_a_huge_coupling_still_finds_its_crossings(capsys):
    assert run(["snmap", "--K", "1e150", "--mu", "1", "--eq", "plus", "--tau-window", "0:1e-74"]) == 0
    assert "2 crossings" in capsys.readouterr().err


def test_a_huge_filter_rate_still_finds_its_crossings(tmp_path, capsys):
    # b = r1^2 - 2 r0 is about 1e200, so b^2 overflows while the crossing
    # frequency of the fix block, about 1.16, is an ordinary number
    out = tmp_path / "s.csv"
    argv = ["snmap", "--K", "1.05", "--mu", "1e100", "--eq", "plus", "--tau-window", "0:25"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", out]) == 0
    assert "4 crossings" in capsys.readouterr().out
    p = NetworkParams(2, 1.05, 1e100)
    blk = build_blocks(ModelKind.FULL_PHASE, p, equilibrium(p, Branch.PLUS)).fix
    r0, r1, s0 = blk.at(0.0)
    for row in [l.split(",") for l in read(out).splitlines() if l and not l.startswith("#")][1:]:
        tau, w = float(row[0]), float(row[1])
        scale = w * w + r1 * w + abs(r0) + abs(s0)
        assert abs(blk.eval(1j * w, tau)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "argv",
    [
        ["snmap", "--K", "1e200", "--mu", "1", "--eq", "plus", "--tau-window", "0:1e-99"],
        ["curves", "--K", "1e200", "--mu-grid", "1:2:2", "--eq", "plus"],
        ["snmap", "--model", "phase", "--K", "5", "--mu", "1e300", "--tau-window", "0:10"],
    ],
    ids=["snmap", "curves", "snmap-phase"],
)
def test_an_overflowing_crossing_quartic_is_one_line(capsys, argv):
    # c = r0^2 - s0^2 (or b = r1^2 - 2 r0) overflows and would hide a real root
    # w ~ 1e100: an error, not "0 crossings", and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: the crossing quartic overflows")


def test_simulate_beyond_the_memory_budget_is_one_line(capsys):
    argv = ["simulate", "--K", "1.05", "--mu", "0.3", "--t-end", "4", "--step", "1e-9"]
    assert_usage_error(capsys, argv, "budget")


def test_phasediff_check_two_nodes_scales_the_mismatch(tmp_path, capsys):
    # the two modal gains differ by one rounding, which |e^{-lambda tau}|
    # amplifies to 9.5e-11 in absolute terms; relative to the block's terms
    # the mismatch is rounding, while a wrong constant C is not
    out = tmp_path / "pd.csv"
    argv = ["phasediff-check", "--nodes", "2", "--K", "1.05", "--mu", "0.075", "--tau", "9.5"]
    assert run(argv + ["--out", out]) == 0
    assert "PASS" in capsys.readouterr().out
    c_const = float(meta_value(read(out), "c_const"))
    assert run(argv + ["--out", out, "--c-const", repr(c_const + 1e-6)]) == 1
    assert "FAIL" in capsys.readouterr().out
