"""Error norms and convergence-table rows.

The error norm is the L2 distance between a finite-element state, given
by its mesh and coefficient vector, and an exact solution, integrated
with a 5-point Gauss rule (one order above the assembly rule so
quadrature error stays below discretization error on the finest grids).
The run-level error is the discrete max-over-steps of these norms,
folded over a run's records as they arrive; every iterate participates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .mesh import ERROR_RULE, Mesh1D, check_state, sample_function
from .stepping import StepRecord


def _error_norm(mesh: Mesh1D, c: np.ndarray, exact_values: np.ndarray) -> float:
    """||rho_h - exact|| for the coefficients c of rho_h, given exact at the ERROR_RULE points."""
    rule = ERROR_RULE
    # (n_el, q), the layout of exact_values, so the sum below keeps its order
    diff = check_state(mesh, c)[mesh.cell_dofs].T @ rule.values[mesh.degree].T
    diff -= exact_values
    value = mesh.h * np.einsum("q,eq->", rule.weights, diff * diff)
    return float(np.sqrt(max(value, 0.0)))


def run_error_inf(mesh: Mesh1D, steps: Iterable[StepRecord], exact: Callable) -> float:
    """Max error over every iterate of a run's records on mesh, pre-filter states included.

    Time-filtered runs produce two iterates per level (the backward
    Euler state and its filtered correction); convergence reporting
    samples both, which is how the reference time-accuracy data behave.
    The quadrature points are formed once per run and the exact solution
    is sampled once per level, for both iterates.
    """
    errors, xq = [], mesh.quad_points(ERROR_RULE)
    for c, diag, c_hat in steps:
        values = sample_function(lambda x: exact(x, diag.t), xq)
        errors += [_error_norm(mesh, state, values)
                   for state in ((c,) if c_hat is c else (c, c_hat))]
    return max(errors)


@dataclass(frozen=True)
class TableRow:
    label: str
    resolution: float  # h or dt
    error: float | None  # None for a failed rung
    rate: float | None  # None on the first row and next to a failed or zero-error rung


def convergence_table(errors: Sequence[tuple[float, float | None]]) -> tuple[TableRow, ...]:
    """Build (resolution, error, rate) rows with rate = log2(e_prev / e).

    A row's label is 1/k when its resolution is 1/k for a whole k (to
    1e-9 relative), else the resolution in %g.  An error of None marks a
    failed rung: its row carries no error, and no rate is taken across
    it.  An error of exactly zero (a run that reproduces the exact
    solution at every quadrature point, such as a projection at t = 0) has
    its row, but no rate is taken next to it either.  Raises ValueError
    for a negative error or for resolutions that do not halve, as log2
    rates assume.
    """
    resolutions = [float(r) for r, _ in errors]
    values = [None if e is None else float(e) for _, e in errors]
    if any(e < 0 for e in values if e is not None):
        raise ValueError("errors must be nonnegative")
    for coarse, fine in zip(resolutions, resolutions[1:]):
        if abs(coarse / fine - 2.0) > 1e-6:
            raise ValueError(f"resolutions {coarse} -> {fine} do not halve")
    rows = []
    for i, (resolution, error) in enumerate(zip(resolutions, values)):
        inverse = 1.0 / resolution
        whole = abs(inverse - round(inverse)) < 1e-9 * inverse
        label = f"1/{round(inverse)}" if whole else f"{resolution:g}"
        rate = None
        if i > 0 and error and values[i - 1]:  # neither failed nor zero
            rate = float(np.log2(values[i - 1] / error))
        rows.append(TableRow(label, resolution, error, rate))
    return tuple(rows)

