"""Quick run of every benchmark workload: it must finish with every task
correct.  The in-process workloads also run traced.  Timings are never
checked; this catches a library change that the benchmark relies on, such as
a renamed function or keyword."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_correctly(workload):
    run_tiny(workload, 0)


@pytest.mark.parametrize("workload", ["dual-matching", "dual-wide", "closure"])
def test_bench_workload_runs_correctly_traced(workload):
    # the tracer wraps library functions by name, so this catches a change
    # that the traced run relies on
    metrics = run_tiny(workload, 1)["metrics"]
    assert metrics["failed_ratio"]["value"] == 0
    if workload == "closure":
        # these read 0 if a change hides FormalContext.intent_masks, which
        # the tracer wraps by name, from the calls the workload makes
        assert metrics["context.intents"]["value"] > 0
        assert metrics["context.enum_ms"]["value"] > 0
        assert metrics["context.intents_per_s"]["value"] > 0
