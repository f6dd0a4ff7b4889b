"""Smoke test of the benchmark: one execution of each workload it declares.

The benchmark imports ``lwrfem`` and gates each execution against
reference outputs.  ``perfbench/worker.py`` runs ``lwrfem.cli.main`` and
times the set-up through this library surface: ``build_mesh``,
``assemble``, ``build_filter_context`` and ``l2_project``;
``lwrfem.cli.parse_config`` and, on the ``RunConfig`` it returns,
``get_scenario`` and ``delta_for`` and the fields ``n_elements``,
``degree``, ``boundary_kind``, ``deconv_order`` and ``time_levels``; and
the scenario's ``initial_condition``.  A change that breaks that
contract makes the benchmark report ``correct: false`` with no metrics,
so this runs it as declared in ``BENCHMARK.json``, for a single
execution per workload; and once traced per workload, so that a change
losing a per-layer metric fails here too.  A quick check that every
library name the tracer wraps still exists runs first: a renamed site
whose metric the benchmark does not declare would otherwise go untraced
without a failure.
"""

import importlib
import importlib.util
import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _lookup_sites():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.LOOKUP_SITES]


def test_every_traced_lookup_site_exists():
    # lwrfem.cli.run_backward_euler went with the one time-marching loop
    absent = [f"{module}.{attr}" for module, attr in _lookup_sites()
              if not callable(getattr(importlib.import_module(module), attr, None))]
    assert absent == ["lwrfem.cli.run_backward_euler"]


def _run(workload, *flags):
    """The last line of one benchmark execution, checked to be correct."""
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "1", "--seconds", "0",
         *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    return result


def _assert_reports(result, declared):
    for metric in declared:
        name = metric["name"]
        assert name in result["metrics"], name
        assert math.isfinite(result["metrics"][name]["value"]), name


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_is_correct_with_every_end_to_end_metric(workload):
    _assert_reports(_run(workload), BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_workload_reports_every_per_layer_metric(workload):
    # a per-layer metric goes absent when a traced lookup site is renamed
    # or removed, or when a result hook no longer fits what it wraps
    result = _run(workload, "--trace", "1")
    _assert_reports(result, BENCHMARK["per_layer"])
    if workload == "mms-time-ladder":
        # Newton keeps a step's factor while it is predicted to finish, so
        # the ladder factors fewer times than it iterates
        metric = {name: value["value"] for name, value in result["metrics"].items()}
        assert metric["linalg.lu_solve.calls"] < (
            metric["stepping.be_step.calls"] * metric["stepping.newton.iters_per_step"])
