"""What importing the package does to its process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code, **env):
    """stdout of ``code`` in a new interpreter without either BLAS thread variable but ``env``."""
    clean = {
        k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=clean | {"PYTHONPATH": str(SRC)} | env,
        capture_output=True, text=True, check=True,
    )
    return run.stdout


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
def test_import_leaves_the_process_one_thread():
    status = _run_fresh("import pllbif\nprint(open('/proc/self/status').read())")
    assert "\nThreads:\t1\n" in status


def test_import_keeps_the_callers_thread_setting():
    out = _run_fresh("import os, pllbif\nprint(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS="2")
    assert out == "2\n"
