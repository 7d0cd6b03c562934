"""Command-line interface, exercised in process through main(argv)."""

import importlib.util
import inspect
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from pllbif import ModelKind, cli
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
    args = ["releq", "--K", "1", "--tau-window", "0:8", "--resolution", "400"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert read(a) == read(b)
    assert read(a).startswith("# n_nodes = 2\n")
    # a window start of -0 is the delay 0, in the summary line too
    c = tmp_path / "c.csv"
    assert run(["releq", "--K", "1", "--tau-window=-0:8", "--resolution", "400", "--out", c]) == 0
    assert read(c) == read(a)
    assert capsys.readouterr().out.splitlines()[-1].endswith(" on [0, 8]")


def test_normalization_happens_at_the_boundary(tmp_path):
    # physical parameters and their normalized image emit identical files
    phys, norm = tmp_path / "p.csv", tmp_path / "n.csv"
    assert run(["zero-roots", "--omega-m", "2", "--K", "1.6", "--mu", "1.0", "--n", "0:6", "--out", phys]) == 0
    assert run(["zero-roots", "--K", "0.8", "--mu", "0.5", "--n", "0:6", "--out", norm]) == 0
    assert read(phys) == read(norm)
    assert float(meta_value(read(phys), "omega_m")) == 1.0
    assert float(meta_value(read(phys), "K")) == 0.8


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


def test_svg_written_alongside_csv(tmp_path):
    out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    assert run(["releq", "--K", "1", "--tau-window", "0:8", "--resolution", "300",
                "--out", out, "--svg", svg]) == 0
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


def test_zero_free_frequency_is_rejected_not_replaced(capsys):
    assert_usage_error(capsys, ["zero-roots", "--K", "0.8", "--mu", "0.5", "--omega-m", "0"], "--omega-m")


@pytest.mark.parametrize("resolution", ["0", "1"])
def test_resolution_below_two_is_rejected(capsys, resolution):
    assert_usage_error(
        capsys, ["releq", "--K", "1", "--tau-window", "0:8", "--resolution", resolution], "--resolution"
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["releq", "--K", "1", "--tau-window", "0:8", "--resolution", "abc"], "--resolution"),
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


@pytest.mark.parametrize("step", ["0", "-0.5"])
def test_grid_step_must_be_positive(capsys, step):
    assert_usage_error(
        capsys,
        ["snmap", "--K", "1.05", "--mu", "0.3", "--tau-window", "0:25", "--grid-step", step],
        "--grid-step",
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
    ],
)
def test_bad_choice_or_unknown_flag_is_one_line(capsys, argv, needle):
    assert_usage_error(capsys, argv, needle)


@pytest.mark.parametrize("key", ["k", "coupling"])
def test_config_keys_are_flag_names(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau-window": "0:8", "omega_m": 1, "resolution": 300}), encoding="utf-8")
    assert run(["releq", "--config", cfg, "--K", "1", "--out", tmp_path / "r.csv"]) == 0
    cfg.write_text(json.dumps({key: 0.8, "mu": 0.5}), encoding="utf-8")
    assert_usage_error(capsys, ["zero-roots", "--config", cfg], repr(key))


@pytest.mark.parametrize("nodes", [2, 3])
def test_phasediff_check_fails_on_nan_residual(monkeypatch, capsys, nodes):
    # max() would drop the NaN and report PASS
    nan = SimpleNamespace(eval=lambda z: math.nan)
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


def test_readme_command_lines_run(monkeypatch, tmp_path):
    commands = load_readme_outputs().readme_commands()
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == 0, argv


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
