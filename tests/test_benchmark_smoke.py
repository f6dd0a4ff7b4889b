"""Smoke test of the benchmark: one execution of each workload it declares.

The benchmark imports ``lwrfem`` (``perfbench/worker.py`` calls
``build_mesh``, ``assemble``, ``build_filter_context``, ``l2_project`` and
``lwrfem.cli.parse_config``) and gates each execution against reference
outputs.  A change that breaks that contract makes the benchmark report
``correct: false`` with no metrics, so this runs it as declared in
``BENCHMARK.json``, for a single execution per workload.
"""

import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_is_correct_with_every_end_to_end_metric(workload):
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        assert name in result["metrics"], name
        assert math.isfinite(result["metrics"][name]["value"]), name
