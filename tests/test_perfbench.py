"""The benchmark's query generators are deterministic.

`perfbench/run.py --self-test` checks that a seed always gives the same
pass of queries and that two seeds give different ones; a generator that
drifts would make bench runs incomparable, so it fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
