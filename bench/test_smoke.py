"""Toy-size smoke test of the benchmark harness.

Runs every workload untraced and traced on toy inputs and checks the result
contract: the last stdout line is one JSON object, no job failed, and every
metric is present with a number. Also checks that the harness refuses to run
where there is no package source.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent

# timings the report prints beyond the end-to-end set
PRINTED = {
    "fit-poisson-k3": ["fit_s", "roundtrip_s", "failed_ratio"],
    "cli-cold": ["fit_s", "cold_start_s", "cli_s", "failed_ratio"],
}


def harness(script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_run_reports_every_metric(workload, trace):
    proc = harness(BENCH / "run.py", "--workload", workload, "--seed", "5",
                   "--seconds", "0", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        printed = {m.group(1): m.group(2) for m in
                   re.finditer(r"^  (\S+)\s+(\S+) \S+", proc.stdout, re.MULTILINE)}
        for name in PRINTED[workload]:
            assert name in printed and printed[name] != "n/a", name
        assert float(printed["failed_ratio"]) == 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = harness(tmp_path / "bench" / "run.py", "--workload", "cli-cold", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
