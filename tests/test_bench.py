"""Smoke runs of the benchmark: each workload's set-up and one round, so an
op the benchmark checks and fails also fails the test suite."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["extend", "kernel", "cli"])
def test_one_bench_round_is_correct(workload):
    # --seconds 0 runs the set-up (its warm-up rounds) and one timed round;
    # the last line of stdout is the run's JSON summary.  A numpy warning
    # fails the run, as the suite's own filter fails a library test
    command = [sys.executable, "-W", "error::RuntimeWarning", "bench/run.py"]
    command += ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr
