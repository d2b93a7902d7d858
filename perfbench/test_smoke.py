"""Smoke test: every workload at tiny sizes, traced and untraced.

Checks outputs and metric names only; wall-clock values are never gated.
Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "report_s", "sweep_cells_per_s", "peak_rss_mb")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.FULL))
def test_workload_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [name for name, _ in PER_LAYER] if trace else list(END_TO_END)
    assert sorted(result["metrics"]) == sorted(names)
    if trace:  # the tracer saw the CLI entry point
        assert result["metrics"]["cli.self_s"]["value"] > 0


def test_refuses_directory_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prime-random",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
