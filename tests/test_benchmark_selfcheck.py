"""The benchmark's own self-check, run as part of the test suite.

`perfbench/selfcheck.py` runs every workload at its tiny scale: an
unperturbed pass must have no failed operation, a perturbed golden output
and a perturbed invariant must each fail the gate, and a traced pass must
resolve every tracer binding and account for its wall time.  Running it
here catches a binding that no longer resolves, or an output that drifted
from the golden file, before a benchmark run does.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 self-check failures" in proc.stdout
