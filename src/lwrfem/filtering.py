"""Discrete differential filter, van Cittert deconvolution, stabilization.

The filtered field ubar solves  delta^2 (ubar', v') + (ubar, v) = (u, v)
for all test functions v, i.e. (M + delta^2 S) ubar = M u in coefficient
space.  Deconvolution of order N applies D_N = sum_{n=0..N} (I - G)^n to
the filtered field, and the fluctuation (the unresolved remainder)

    u* = u - D_N(G(u))

is what the stabilization term chi delta^2 (du*/dx, dv*/dx) penalizes.
In coefficient space the fluctuation is the matrix Pi = I - D_N(F) F
with F = (M + delta^2 S)^{-1} M, which telescopes to (I - F)^{N+1};
the quadratic form of the stabilization term is then Pi^T S Pi.  Only
that quadratic form is kept: the solver never filters a field on its
own.  The test suite holds an independent oracle that applies G and D_N
by repeated filter solves, as approximate deconvolution does.

Everything here is dense: the filter inverse densifies the operator
anyway, and precomputing Pi^T S Pi once per (mesh, delta, N) makes each
implicit step a plain dense solve.  On Dirichlet meshes the
filter equations are posed on all DOFs with natural boundary conditions
(no rows are constrained), which keeps M + delta^2 S symmetric positive
definite.
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
    """Cache Pi^T S Pi, Pi = I - D_N(F) F, with F = (M + delta^2 S)^{-1} M."""
    if delta < 0:
        raise ValueError(f"filter radius must be nonnegative, got {delta}")
    if deconv_order < 0:
        raise ValueError(f"deconvolution order must be nonnegative, got {deconv_order}")
    m, s = operators.mass, operators.stiffness
    n = m.shape[0]
    f = lu_solve(m + delta**2 * s, m)

    eye = np.eye(n)
    i_minus_f = eye - f
    deconv = eye.copy()  # n = 0 term
    power = eye
    for _ in range(deconv_order):
        power = power @ i_minus_f
        deconv += power
    pi = eye - deconv @ f

    return FilterContext(delta=float(delta), stabilization_base=pi.T @ s @ pi)


def stabilization_matrix(ctx: FilterContext, chi: float) -> np.ndarray:
    """Coefficient-space stabilization operator chi delta^2 Pi^T S Pi."""
    if chi < 0:
        raise ValueError(f"chi must be nonnegative, got {chi}")
    return chi * ctx.delta**2 * ctx.stabilization_base
