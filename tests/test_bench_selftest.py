"""The benchmark's own self-tests, run as part of the suite.

``bench/tracing.py`` wraps package functions by parameter name, so a
change to those signatures or to what they return breaks traced runs;
running ``bench/selftest.py`` here makes such a change fail the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftests_pass():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
