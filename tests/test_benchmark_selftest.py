"""The benchmark harness calls the stage functions by position and keyword
and reads their result keys; its self-test runs every workload once at tiny
scale, so a change that breaks those calls fails here and not only in a
benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "self-test passed" in run.stdout
