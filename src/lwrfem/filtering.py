"""Discrete differential filter, van Cittert deconvolution, stabilization.

The filtered field ubar solves  delta^2 (ubar', v') + (ubar, v) = (u, v)
for all test functions v, i.e. (M + delta^2 S) ubar = M u in coefficient
space.  Deconvolution of order N applies D_N = sum_{n=0..N} (I - G)^n to
the filtered field, and the fluctuation (the unresolved remainder)

    u* = u - D_N(G(u)) = (I - G)^{N+1} u

is what the stabilization term chi delta^2 (du*/dx, dv*/dx) penalizes.
In coefficient space the fluctuation is the matrix Pi = (I - F)^{N+1}
with F = (M + delta^2 S)^{-1} M, and it is computed as that power; the
quadratic form of the stabilization term is then Pi^T S Pi.  Only that
quadratic form is kept: the solver never filters a field on its own.
The test suite holds an independent oracle that applies G and D_N by
repeated filter solves, as approximate deconvolution does.

Everything here is dense: the filter inverse densifies the operator
anyway.  The build is one LU solve with n right-hand sides, at most
2 log2(N+1) products for the power (none at N = 0) and two for
Pi^T S Pi, each O(n^3): about 0.2 s and a few n x n arrays at n = 1025
on one thread of a 2-vCPU Xeon VM.  It runs once per (mesh, delta, N),
and each implicit step is then a plain dense solve.  On Dirichlet meshes the filter equations are posed on all
DOFs with natural boundary conditions (no rows are constrained), which
keeps M + delta^2 S symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import lu_solve
from .operators import AssembledOperators


@dataclass(frozen=True, eq=False)
class FilterContext:
    """Precomputed stabilization for one (mesh, delta, N) combination."""

    delta: float
    stabilization_base: np.ndarray  # Pi^T S Pi (scaled by chi delta^2 on use)


def build_filter_context(
    operators: AssembledOperators, delta: float, deconv_order: int
) -> FilterContext:
    """Cache Pi^T S Pi, Pi = (I - F)^{N+1}, with F = (M + delta^2 S)^{-1} M."""
    if delta < 0:
        raise ValueError(f"filter radius must be nonnegative, got {delta}")
    if deconv_order < 0:
        raise ValueError(f"deconvolution order must be nonnegative, got {deconv_order}")
    m, s = operators.mass, operators.stiffness
    f = lu_solve(m + delta**2 * s, m)
    pi = np.linalg.matrix_power(np.eye(m.shape[0]) - f, deconv_order + 1)
    return FilterContext(delta=float(delta), stabilization_base=pi.T @ s @ pi)


def stabilization_matrix(ctx: FilterContext, chi: float) -> np.ndarray:
    """Coefficient-space stabilization operator chi delta^2 Pi^T S Pi."""
    if chi < 0:
        raise ValueError(f"chi must be nonnegative, got {chi}")
    return chi * ctx.delta**2 * ctx.stabilization_base
