"""The benchmark's smoke run passes against the package in src/."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_run():
    # every workload briefly, untraced and traced; about 20 seconds
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "benchmarks", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
