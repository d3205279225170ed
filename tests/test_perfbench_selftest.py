"""The benchmark's own self-test, run as part of the suite: it fails when a
rename breaks the benchmark's tracer or a change alters the traced call
counts it pins (`SimDevice.taus`, `training._loss_and_cograds`, ...)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
