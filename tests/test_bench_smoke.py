"""Smoke run of the benchmark harness: every workload, traced, for a tenth of a second.

The harness binds moldae's stage entry points and argument names from
outside the package; this catches a refactor that breaks one of them.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_all_workloads_run_correctly(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0.1",
         "--trace", "1", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
