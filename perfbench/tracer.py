"""In-memory span tracer that wraps functions at their lookup sites.

``stepping`` and ``cli`` import most library functions with
``from ... import``, so a call is traced only when the name is replaced
in the module that looks it up at call time (``lwrfem.stepping.b_residual``,
not ``lwrfem.operators.b_residual``).  A name that a later refactor
renames or removes is skipped and recorded in ``missing``; the metrics
built on it are then reported as absent instead of failing the run.

Each span is (name, start, end, parent index); parent -1 marks a root.
Spans stay in memory until ``dump`` writes them as JSON lines.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import statistics
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self.broken_hooks: list[str] = []

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def traced(self, fn, name: str, on_result=None):
        """Return ``fn`` wrapped so each call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                try:
                    on_result(self, args, result)
                except (TypeError, ValueError, IndexError, AttributeError):
                    # A changed signature leaves the hook's counter unset,
                    # and the metrics built on it absent.
                    if name not in self.broken_hooks:
                        self.broken_hooks.append(name)
            return result

        return wrapper

    def wrap(self, module: str, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by its traced version, if it exists."""
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if not callable(fn):
            self.missing.append(f"{module}.{attr}")
            return
        setattr(mod, attr, self.traced(fn, name, on_result))
        self.wrapped.add(name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _array_bytes(obj, skip_types=None) -> int:
    """Bytes of the arrays an object holds; with ``skip_types`` given, also
    those of the objects it holds one level down, except of those types."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif skip_types is not None and hasattr(value, "__dict__") \
                and not isinstance(value, skip_types):
            total += _array_bytes(value)
    return total


def _on_newton(tracer, args, result):
    tracer.add("newton.iters", result[1])


def _on_lu_solve(tracer, args, result):
    # Computed, not counted by hardware: (2/3) n^3 for the factorization
    # plus 2 n^2 per right-hand side for the two triangular solves.
    n = np.shape(args[0])[0]
    rhs = np.shape(args[1])
    tracer.add("lu.flop", 2.0 / 3.0 * n**3 + 2.0 * n**2 * (rhs[1] if len(rhs) > 1 else 1))


def _on_assemble(tracer, args, result):
    tracer.peak("dense_bytes", _array_bytes(result))


def _on_filter_context(tracer, args, result):
    # The assembled operators the context refers to count under dense_bytes.
    tracer.peak("ctx_bytes", _array_bytes(result, skip_types=(type(args[0]),)))


# (module that looks the name up, name, span name, result hook).  The span
# name is "<layer>.<function>"; the layer is the module that defines it.
LOOKUP_SITES = [
    ("lwrfem.cli", "run_backward_euler", "stepping.run_backward_euler", None),
    ("lwrfem.cli", "run_time_filtered", "stepping.run_time_filtered", None),
    ("lwrfem.cli", "build_mesh", "mesh.build_mesh", None),
    ("lwrfem.cli", "evaluate", "mesh.evaluate", None),
    ("lwrfem.cli", "run_error_inf", "analysis.run_error_inf", None),
    ("lwrfem.cli", "_write_profile", "cli.write_profile", None),
    ("lwrfem.cli", "_write_diagnostics", "cli.write_diagnostics", None),
    ("lwrfem.cli", "_write_convergence", "cli.write_convergence", None),
    ("lwrfem.analysis", "l2_error", "analysis.l2_error", None),
    ("lwrfem.stepping", "assemble", "operators.assemble", _on_assemble),
    ("lwrfem.stepping", "build_filter_context", "filtering.build_filter_context",
     _on_filter_context),
    ("lwrfem.stepping", "l2_project", "mesh.l2_project", None),
    ("lwrfem.stepping", "be_step", "stepping.be_step", None),
    ("lwrfem.stepping", "newton_solve", "stepping.newton_solve", _on_newton),
    ("lwrfem.stepping", "lu_solve", "linalg.lu_solve", _on_lu_solve),
    ("lwrfem.stepping", "b_residual", "operators.b_residual", None),
    ("lwrfem.stepping", "b_jacobian", "operators.b_jacobian", None),
    ("lwrfem.stepping", "forcing_vector", "operators.forcing_vector", None),
    ("lwrfem.stepping", "stabilization_matrix", "filtering.stabilization_matrix", None),
    ("lwrfem.stepping", "time_filter_step", "stepping.time_filter_step", None),
    ("lwrfem.stepping", "energy_e", "stepping.energy_e", None),
    ("lwrfem.stepping", "energy_z", "stepping.energy_z", None),
    ("lwrfem.stepping", "mass_norm", "stepping.mass_norm", None),
]

SCENARIO_CALLABLES = ("initial_condition", "boundary_data", "forcing", "exact_solution")


def _traced_scenario(tracer, factory):
    def make():
        scenario = factory()
        fields = {
            field: tracer.traced(getattr(scenario, field), f"scenarios.{field}")
            for field in SCENARIO_CALLABLES
            if callable(getattr(scenario, field, None))
        }
        return dataclasses.replace(scenario, **fields)

    return make


def install(tracer: Tracer) -> None:
    """Wrap every lookup site of the library's layers."""
    for module, attr, name, hook in LOOKUP_SITES:
        tracer.wrap(module, attr, name, hook)
    registry = getattr(importlib.import_module("lwrfem.cli"), "SCENARIOS", None)
    if not isinstance(registry, dict):
        tracer.missing.append("lwrfem.cli.SCENARIOS")
        return
    for key, factory in list(registry.items()):
        registry[key] = _traced_scenario(tracer, factory)
    tracer.wrapped.update(f"scenarios.{field}" for field in SCENARIO_CALLABLES)


LAYERS = ("linalg", "mesh", "operators", "filtering", "stepping", "scenarios",
          "analysis", "cli")


def layer_metrics(spans, counters, wrapped) -> dict[str, float]:
    """Per-layer metrics of one traced execution.

    A metric is reported when every function it is built on was wrapped;
    one that ran zero times reads 0.  A metric built on a function that a
    refactor renamed or removed is left out.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    steps_ms: list[float] = []
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child[i]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += duration - child[i]
        if name == "stepping.be_step":
            steps_ms.append(1e3 * duration)

    out: dict[str, float] = {}

    def put(metric, value, *needed):
        if all(need in wrapped for need in needed):
            try:
                out[metric] = float(value())
            except (KeyError, ZeroDivisionError, ValueError, IndexError):
                pass  # a counter never set, or nothing to divide by

    step, newton, lu, res = ("stepping.be_step", "stepping.newton_solve",
                             "linalg.lu_solve", "operators.b_residual")
    steps = calls.get(step, 0)
    put(f"{step}.calls", lambda: steps, step)
    put(f"{step}.p50_ms", lambda: statistics.median(steps_ms), step)
    put(f"{step}.p99_ms", lambda: np.percentile(steps_ms, 99), step)
    put(f"{newton}.self_s", lambda: self_s.get(newton, 0.0), newton)
    put("stepping.newton.iters_per_step", lambda: counters["newton.iters"] / steps,
        newton, step)
    diagnostics = ("stepping.energy_e", "stepping.energy_z", "stepping.mass_norm")
    put("stepping.diagnostics_s", lambda: sum(total.get(n, 0.0) for n in diagnostics),
        *diagnostics)
    put(f"{lu}.ms_per_call", lambda: 1e3 * total[lu] / calls[lu], lu)
    put(f"{lu}.gflop", lambda: counters["lu.flop"] / 1e9, lu)
    put(f"{lu}.gflops", lambda: counters["lu.flop"] / 1e9 / total[lu], lu)
    put(f"{res}.calls_per_iter", lambda: calls.get(res, 0) / counters["newton.iters"],
        res, newton)
    for name, fields in (
        (step, ("self_s",)),
        ("stepping.time_filter_step", ("total_s",)),
        (lu, ("calls", "total_s")),
        (res, ("calls", "total_s")),
        ("operators.b_jacobian", ("calls", "total_s")),
        ("operators.forcing_vector", ("total_s",)),
        ("operators.assemble", ("total_s",)),
        ("filtering.build_filter_context", ("total_s",)),
        ("filtering.stabilization_matrix", ("calls", "total_s")),
        ("mesh.l2_project", ("total_s",)),
        ("analysis.run_error_inf", ("calls", "total_s")),
    ):
        table = {"calls": calls, "total_s": total, "self_s": self_s}
        for field in fields:
            put(f"{name}.{field}", lambda: table[field].get(name, 0), name)
    put("operators.dense_bytes", lambda: counters["dense_bytes"], "operators.assemble")
    put("filtering.ctx_bytes", lambda: counters["ctx_bytes"], "filtering.build_filter_context")
    writers = ("cli.write_profile", "cli.write_diagnostics", "cli.write_convergence")
    put("cli.csv_write_s", lambda: sum(total.get(n, 0.0) for n in writers), *writers)
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    return out
