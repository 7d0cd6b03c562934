"""The README's commands write the same bytes as when their digests were committed.

``tools/readme_outputs.py`` runs every ``pllbif`` command of the README and
``pllbif verify`` in-process through ``cli.main``, each in an empty working
directory, and hashes its stdout (``verify``'s without timings) and every
file it wrote.  ``tests/readme_outputs.sha256`` holds the digests written by
``python3 tools/readme_outputs.py --digests``.  A change that moves an output
regenerates that file, and CHANGES.md names the output that changed and the
independent evidence that the new one is right.

The digests pin the last bit of every float the commands print, so they hold
for the numpy build and the C math library they were written with: numpy
2.4.6 (OpenBLAS) on Python 3.11.7, x86-64 Linux.  On another platform,
regenerate them at a trusted commit before comparing a change.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_readme_outputs():
    spec = importlib.util.spec_from_file_location("readme_outputs", ROOT / "tools" / "readme_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_outputs_match_their_digests():
    tool = load_readme_outputs()
    want = {}
    for line in tool.DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, path = line.split("  ", 1)
        want[path] = digest
    assert tool.output_digests() == want
