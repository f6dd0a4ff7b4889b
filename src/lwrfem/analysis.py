"""Error norms, convergence tables, and oscillation metrics.

The error norm is the L2 distance between a finite-element function and
an exact solution, integrated with a 5-point Gauss rule (one order above
the assembly rule so quadrature error stays below discretization error
on the finest grids).  The run-level error is the discrete
max-over-steps of these norms, folded over a run's records as they
arrive; every iterate participates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .mesh import ERROR_RULE, FeFunction, element_values, sample_function
from .stepping import StepRecord


class NonHalvingLadderError(ValueError):
    """Successive resolutions must halve for log2 rates to make sense."""


def l2_error(rho_h: FeFunction, exact: Callable, t: float) -> float:
    """||rho_h - exact(., t)|| by elementwise 5-point quadrature."""
    mesh = rho_h.mesh
    rule = ERROR_RULE
    uq, _ = element_values(rho_h, rule)
    xq = mesh.quad_points(rule)
    eq = sample_function(lambda x: exact(x, t), xq)
    diff = uq - eq
    value = mesh.h * np.einsum("q,eq->", rule.weights, diff * diff)
    return float(np.sqrt(max(value, 0.0)))


def run_error_inf(steps: Iterable[StepRecord], exact: Callable) -> float:
    """Max error over every iterate of a run's records, pre-filter states included.

    Time-filtered runs produce two iterates per level (the backward
    Euler state and its filtered correction); convergence reporting
    samples both, which is how the reference time-accuracy data behave.
    """
    return max(
        l2_error(state, exact, diag.t)
        for rho, diag, rho_hat in steps
        for state in ((rho,) if rho_hat is rho else (rho, rho_hat))
    )


@dataclass(frozen=True)
class TableRow:
    label: str
    resolution: float  # h or dt
    error: float | None  # None for a failed rung
    rate: float | None  # None on the first row and next to a failed rung


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[TableRow, ...]


def convergence_table(
    errors: Sequence[tuple[float, float | None]],
    labels: Sequence[str] | None = None,
) -> ConvergenceTable:
    """Build (resolution, error, rate) rows with rate = log2(e_prev / e).

    An error of None marks a failed rung: its row carries no error, and
    no rate is taken across it.
    """
    resolutions = [float(r) for r, _ in errors]
    values = [None if e is None else float(e) for _, e in errors]
    if any(e <= 0 for e in values if e is not None):
        raise ValueError("errors must be strictly positive")
    for coarse, fine in zip(resolutions, resolutions[1:]):
        if abs(coarse / fine - 2.0) > 1e-6:
            raise NonHalvingLadderError(
                f"resolutions {coarse} -> {fine} do not halve"
            )
    if labels is None:
        labels = [f"{r:g}" for r in resolutions]
    rows = []
    for i, (label, resolution, error) in enumerate(zip(labels, resolutions, values)):
        rate = None
        if i > 0 and error is not None and values[i - 1] is not None:
            rate = float(np.log2(values[i - 1] / error))
        rows.append(TableRow(label, resolution, error, rate))
    return ConvergenceTable(rows=tuple(rows))


def total_variation(rho_h: FeFunction) -> float:
    """Sum of |jumps| between consecutive nodal values (increasing x)."""
    return float(np.abs(np.diff(rho_h.coefficients)).sum())


def overshoot(rho_h: FeFunction, reference_max: float) -> float:
    """Nodal exceedance above a reference ceiling, max(0, max rho - ref)."""
    return float(max(0.0, rho_h.coefficients.max() - reference_max))
