"""The README's library example runs as written and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert "0" in lines  # unstable_count at the operating delay
    assert any(line.startswith("24.1895") for line in lines)  # the refined period
    assert "Z2_SPATIO_TEMPORAL" in lines[-1]  # pair swap with half-period shift
