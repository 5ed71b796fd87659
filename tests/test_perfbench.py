"""The benchmark's self-test runs against the package in ``src/``.

A change to the calls perfbench makes (``DhoParams``, ``RabiParams``,
``resolve_spectrum``, ``flow`` and ``scan`` on the solve path) fails
here, not only when the benchmark is run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
