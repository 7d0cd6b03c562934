"""Command-line interface, exercised in process through main(argv)."""

import json

import pytest

from pllbif import cli
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


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["releq", "--K", "1", "--tau-window", "0:8", "--resolution", "400"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert read(a) == read(b)
    assert read(a).startswith("# n_nodes = 2\n")


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
