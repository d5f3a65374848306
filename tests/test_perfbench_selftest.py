"""The benchmark harness's own self-tests pass on this tree.

perfbench/selftest.py runs the benchmark at one realization per run and
checks its metric names, units and failure counting. It writes under the
git-ignored .perfbench_out/ and takes a few seconds.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 8 checks passed" in proc.stdout
