"""The committed benchmark runs: one short traced run per workload of
perfbench/run.py, which must exit 0 and report correct output with no
failed operation. The traced pass checks, among its outputs, that the
`excluded` column of the ne_* sweeps equals the number of iwfa calls that
did not converge, so the harness keeps one iwfa call per trial."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ne_crossover", "ne_converging",
                                      "pareto_cli"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
