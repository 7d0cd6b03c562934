"""Run the README's ``pllbif`` commands and keep everything they produce.

Usage::

    python3 tools/readme_outputs.py OUTDIR
    python3 tools/readme_outputs.py --digests

Reads the ``pllbif`` command lines from the ``sh`` blocks of the README next
to this script (``\\`` continuations joined, ``pllbif verify`` skipped) and
runs each one with this checkout's ``src`` on the path, in its own directory
``OUTDIR/<k>-<command>/``.  That directory then holds ``stdout``, ``stderr``,
``exit_code`` and every file the command wrote there (``curves.svg``,
``sim.csv``).  ``pllbif verify`` runs last, in ``OUTDIR/verify/``, and its
``stdout`` keeps the 12 criterion lines without their timings.  Captured from
two checkouts, the outputs compare with one ``diff -r``.

``--digests`` runs the same commands in-process instead and writes the
SHA-256 digest of every ``stdout``, ``stderr``, ``exit_code`` and written
file to ``tests/readme_outputs.sha256``, in ``sha256sum`` format with the
paths of an OUTDIR capture: ``sha256sum -c`` run in OUTDIR checks a whole
capture against it, and ``tests/test_outputs.py`` checks the in-process
outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "readme_outputs.sha256"


def readme_commands(readme: Path = ROOT / "README.md") -> list[list[str]]:
    """Argument lists (without ``pllbif``) of the README's commands but ``verify``."""
    commands = []
    for block in readme.read_text(encoding="utf-8").split("```sh\n")[1:]:
        body = block.split("```", 1)[0].replace("\\\n", " ")
        for line in body.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["pllbif"] and argv[1:2] != ["verify"]:
                commands.append(argv[1:])
    return commands


def capture(argv: list[str], workdir: Path) -> int:
    """Run ``pllbif argv`` in ``workdir`` and write its streams and exit code there."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pllbif.cli", *argv],
        cwd=workdir, env=env, capture_output=True, check=False,
    )
    (workdir / "stdout").write_bytes(run.stdout)
    (workdir / "stderr").write_bytes(run.stderr)
    (workdir / "exit_code").write_text(f"{run.returncode}\n", encoding="utf-8")
    return run.returncode


def strip_timings(text: str) -> str:
    """``verify`` output without its timings: a trailing `` (0.12s)``, ``; 2 ms`` or ``; 0.8 s``."""
    return re.sub(r"(; [0-9.]+ m?s)?( \([0-9.]+s\))?$", "", text, flags=re.MULTILINE)


def output_digests() -> dict[str, str]:
    """SHA-256 of every README output, by its path in an OUTDIR capture.

    Each command runs in-process through ``pllbif.cli.main``, in its own
    empty working directory; ``verify``'s stdout has its timings stripped.
    The exit code is hashed as an OUTDIR capture writes it, ``"0\\n"``.
    """
    from pllbif import cli

    runs = [(f"{k}-{argv[0]}", argv) for k, argv in enumerate(readme_commands(), start=1)]
    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in [*runs, ("verify", ["verify"])]:
            workdir = Path(tmp) / name
            workdir.mkdir()
            out, err = io.StringIO(), io.StringIO()
            os.chdir(workdir)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                os.chdir(cwd)
            text = strip_timings(out.getvalue()) if name == "verify" else out.getvalue()
            streams = {"stdout": text, "stderr": err.getvalue(), "exit_code": f"{code}\n"}
            for stream, value in streams.items():
                digests[f"{name}/{stream}"] = hashlib.sha256(value.encode("utf-8")).hexdigest()
            for path in sorted(workdir.iterdir()):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main(args: list[str]) -> int:
    if args == ["--digests"]:
        sys.path.insert(0, str(ROOT / "src"))
        lines = "".join(f"{digest}  {path}\n" for path, digest in output_digests().items())
        DIGESTS.write_text(lines, encoding="utf-8")
        print(f"wrote {DIGESTS}")
        return 0
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: readme_outputs.py OUTDIR | --digests", file=sys.stderr)
        return 2
    out = Path(args[0])
    for k, argv in enumerate(readme_commands(), start=1):
        code = capture(argv, out / f"{k}-{argv[0]}")
        print(f"{k}-{argv[0]}: exit {code}")
    code = capture(["verify"], out / "verify")
    stdout = out / "verify" / "stdout"
    stdout.write_text(strip_timings(stdout.read_text(encoding="utf-8")), encoding="utf-8")
    print(f"verify: exit {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
