"""The benchmark harness's self-test, run as part of the test suite.

The harness under ``bench/`` reaches into the package by name: module
attributes it wraps or patches, and fields of the reports it checks.  Running
its self-test here makes a refactor that breaks one of those names fail the
test suite, not only a later benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
