"""Smoke runs of the benchmark: each workload's set-up and one round, plain
and traced, so an op the benchmark checks and fails also fails the test
suite, and so does a library name the tracer can no longer find."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["extend", "kernel", "cli"]


def run_one_round(workload, trace):
    # --seconds 0 runs the set-up (its warm-up rounds) and one timed round;
    # the last line of stdout is the run's JSON summary.  A numpy warning
    # fails the run, as the suite's own filter fails a library test
    command = [sys.executable, "-W", "error::RuntimeWarning", "bench/run.py"]
    command += ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0, run.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_bench_round_is_correct(workload):
    run_one_round(workload, "0")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_bench_round_is_correct(workload):
    # the tracer wraps every library function it lists, looked up by name
    run_one_round(workload, "1")
