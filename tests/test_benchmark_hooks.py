"""The benchmark's traced runs still read every counter they report.

perfbench/probes.py reads private hooks of atrs (the step lru_caches and the
intern tables); a refactor that removes one makes the benchmark print null
for that metric while every verdict stays right.  One short traced run per
workload catches that.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_benchmark_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    nulls = {name: m.get("reason") for name, m in result["metrics"].items()
             if not isinstance(m["value"], (int, float))}
    assert result["metrics"] and not nulls, nulls
