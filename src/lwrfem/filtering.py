"""Discrete differential filter, van Cittert deconvolution, stabilization.

The filtered field ubar solves  delta^2 (ubar', v') + (ubar, v) = (u, v)
for all test functions v, i.e. (M + delta^2 S) ubar = M u in coefficient
space.  Deconvolution of order N applies D_N = sum_{n=0..N} (I - G)^n to
the filtered field, and the fluctuation (the unresolved remainder)

    u* = u - D_N(G(u))

is what the stabilization term chi delta^2 (du*/dx, dv*/dx) penalizes.
In coefficient space the fluctuation is the matrix Pi = I - D_N(F) F
with F = (M + delta^2 S)^{-1} M, which telescopes to (I - F)^{N+1};
the quadratic form of the stabilization term is then Pi^T S Pi.

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

from .linalg import LuFactorization, lu_factorize
from .mesh import FeFunction, MeshMismatchError
from .operators import AssembledOperators


class NegativeChiError(ValueError):
    """Stabilization weight chi must be nonnegative."""


@dataclass(frozen=True, eq=False)
class FilterContext:
    """Precomputed filter operators for one (mesh, delta, N) combination."""

    delta: float
    deconv_order: int
    operators: AssembledOperators
    stabilization_base: np.ndarray  # Pi^T S Pi (scaled by chi delta^2 on use)
    filter_lu: LuFactorization  # factors of M + delta^2 S


def build_filter_context(
    operators: AssembledOperators, delta: float, deconv_order: int
) -> FilterContext:
    """Factor M + delta^2 S and cache Pi^T S Pi, Pi = I - D_N(F) F."""
    if delta < 0:
        raise ValueError(f"filter radius must be nonnegative, got {delta}")
    if deconv_order < 0:
        raise ValueError(f"deconvolution order must be nonnegative, got {deconv_order}")
    m, s = operators.mass, operators.stiffness
    n = m.shape[0]
    lu = lu_factorize(m + delta**2 * s)
    f = lu.solve(m)

    eye = np.eye(n)
    i_minus_f = eye - f
    deconv = eye.copy()  # n = 0 term
    power = eye
    for _ in range(deconv_order):
        power = power @ i_minus_f
        deconv += power
    pi = eye - deconv @ f

    return FilterContext(
        delta=float(delta),
        deconv_order=int(deconv_order),
        operators=operators,
        stabilization_base=pi.T @ s @ pi,
        filter_lu=lu,
    )


def apply_filter(ctx: FilterContext, u: FeFunction) -> FeFunction:
    """Filtered field: solve (M + delta^2 S) ubar = M u."""
    _require_ctx_mesh(ctx, u)
    rhs = ctx.operators.mass @ u.coefficients
    return FeFunction(u.mesh, ctx.filter_lu.solve(rhs))


def deconvolve(ctx: FilterContext, ubar: FeFunction) -> FeFunction:
    """Van Cittert deconvolution D_N ubar, built iteratively.

    Accumulates sum_{n=0..N} (I - G)^n ubar by repeated filtering, so it
    shares no code path with the cached stabilization base.
    """
    _require_ctx_mesh(ctx, ubar)
    acc = ubar.coefficients.copy()
    term = ubar.coefficients.copy()
    for _ in range(ctx.deconv_order):
        term = term - apply_filter(ctx, FeFunction(ubar.mesh, term)).coefficients
        acc = acc + term
    return FeFunction(ubar.mesh, acc)


def fluctuation(ctx: FilterContext, u: FeFunction) -> FeFunction:
    """Unresolved remainder u - D_N(G(u))."""
    _require_ctx_mesh(ctx, u)
    smooth = deconvolve(ctx, apply_filter(ctx, u))
    return FeFunction(u.mesh, u.coefficients - smooth.coefficients)


def stabilization_matrix(ctx: FilterContext, chi: float) -> np.ndarray:
    """Coefficient-space stabilization operator chi delta^2 Pi^T S Pi."""
    if chi < 0:
        raise NegativeChiError(f"chi must be nonnegative, got {chi}")
    return chi * ctx.delta**2 * ctx.stabilization_base


def _require_ctx_mesh(ctx: FilterContext, u: FeFunction) -> None:
    if u.mesh is not ctx.operators.mesh:
        raise MeshMismatchError("function does not live on the filter context's mesh")
