"""The benchmark harness still runs against the package as it stands.

bench/tracing.py wraps public functions of fluxlattice by name and reads
their arguments, so a signature change can break it without breaking any
package test.  This runs the benchmark's own self-test at its tiny sizes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "SELFTEST passed" in proc.stdout
