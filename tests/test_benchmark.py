"""Smoke test of the benchmark: a short traced run of a workload must
check every answer it gives, so a change to a witness or to a pinned
coverage count fails here and not only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload", ["winner_grid", "audit_scorecard", "independence_scorecard"]
)
def test_short_traced_run_is_correct(workload):
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "0", "--seconds", "0.1", "--trace", "1",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0
