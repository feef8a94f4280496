"""The benchmark's traced gate, run as the benchmark runs it: every
workload's pass digest equals the one recorded in perfbench/digests.json,
and every traced function runs on exactly the workloads that
perfbench/tracer.py lists for it. The run writes only to the checkout's
.bench_work/ and .bench_out/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["simulate", "eval", "plan_dense", "pick"]


@pytest.mark.slow
def test_traced_run_of_every_workload_passes():
    argv = [sys.executable, "perfbench/run.py", "--workload", "all",
            "--seed", "0", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in records] == WORKLOADS
    # a workload that died before its record has no "problems" at all
    assert {r["workload"]: r.get("problems") for r in records} == {w: [] for w in WORKLOADS}
