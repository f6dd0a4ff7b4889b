"""Discrete differential filter, van Cittert deconvolution, stabilization.

The filtered field ubar solves  delta^2 (ubar', v') + (ubar, v) = (u, v)
for all test functions v, i.e. A ubar = M u in coefficient space, with
A = M + delta^2 S.  Deconvolution of order N applies
D_N = sum_{n=0..N} (I - G)^n to the filtered field, and the fluctuation
(the unresolved remainder)

    u* = u - D_N(G(u)) = (I - G)^{N+1} u

is what the stabilization term chi delta^2 (du*/dx, dv*/dx) penalizes.
In coefficient space the fluctuation is Pi = (I - F)^{N+1} with
F = A^{-1} M, and since I - F = A^{-1} delta^2 S it is applied, as
approximate deconvolution does, by repeated filter solves and never
formed:

    Pi u = y_{N+1},          A y_k = delta^2 S y_{k-1},  y_0 = u;
    Pi^T S Pi u = delta^2 S v_1,
                             A v_{N+1} = S y_{N+1},  A v_k = delta^2 S v_{k+1}.

Every operator is banded on a 1D mesh, so A is factored once per
(mesh, delta, N) by a banded Cholesky factorization, and each solve is
one LAPACK pbtrs in O(n) time.  The Newton step of the stepper poses the
same recurrences as extra unknowns of one banded system, whose blocks
``Stabilization.newton_blocks`` returns: this module numbers those
unknowns and builds their equations.  On Dirichlet
meshes the filter equations are posed on all DOFs with natural boundary
conditions (no rows are constrained), which keeps A symmetric positive
definite.

The stabilization's dissipation chi delta^2 (u*_x, u*_x) is the quadratic
form chi delta^2 (Pi u) . S (Pi u), and S Pi u is the first product of
the chain above.  So one call of the operator returns both K u and the
dissipation of u, and no second chain is run for the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs

from .linalg import band_matvec
from .operators import AssembledOperators

_PBTRS, = get_lapack_funcs(("pbtrs",), (np.zeros(1),))


@dataclass(frozen=True, eq=False)
class FilterContext:
    """The filter of one (mesh, delta, N) combination, factored once."""

    delta: float
    deconv_order: int
    stiffness: np.ndarray  # S in band storage
    factor: np.ndarray  # upper banded Cholesky factor of A = M + delta^2 S


def build_filter_context(
    operators: AssembledOperators, delta: float, deconv_order: int
) -> FilterContext:
    """Factor A = M + delta^2 S once, for the filter solves of Pi = (I - F)^{N+1}."""
    if delta < 0:
        raise ValueError(f"filter radius must be nonnegative, got {delta}")
    if deconv_order < 0:
        raise ValueError(f"deconvolution order must be nonnegative, got {deconv_order}")
    w = operators.mesh.half_band
    upper = (operators.mass + delta**2 * operators.stiffness)[: w + 1]
    return FilterContext(
        delta=float(delta), deconv_order=deconv_order, stiffness=operators.stiffness,
        factor=np.asfortranarray(cholesky_banded(upper, check_finite=False)),
    )


def _filter_solve(ctx: FilterContext, b: np.ndarray) -> np.ndarray:
    return _PBTRS(ctx.factor, b)[0]


def fluctuation(ctx: FilterContext, u: np.ndarray) -> np.ndarray:
    """Pi u = y_{N+1}, by N + 1 filter solves A y_k = delta^2 S y_{k-1}."""
    d2, s = ctx.delta**2, ctx.stiffness
    for _ in range(ctx.deconv_order + 1):
        u = _filter_solve(ctx, d2 * band_matvec(s, u))
    return u


@dataclass(frozen=True, eq=False)
class Stabilization:
    """The operator K = chi delta^2 Pi^T S Pi, applied by filter solves."""

    ctx: FilterContext
    weight: float  # chi delta^2

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, float]:
        """(K u, chi delta^2 (Pi u) . S (Pi u)): the product and its dissipation.

        K u = chi delta^2 (delta^2 S v_1), N + 1 more solves after Pi u;
        the quadratic form reuses the chain's S Pi u, so it costs one dot
        product.
        """
        d2, s = self.ctx.delta**2, self.ctx.stiffness
        y = fluctuation(self.ctx, u)
        sy = band_matvec(s, y)
        v = _filter_solve(self.ctx, sy)
        for _ in range(self.ctx.deconv_order):
            v = _filter_solve(self.ctx, d2 * band_matvec(s, v))
        return self.weight * d2 * band_matvec(s, v), self.weight * float(y @ sy)

    def newton_blocks(self, mass: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
        """The chain above as blocks (row, column, band) of one banded system.

        Unknowns per DOF: u (slot 0), y_1..y_{N+1} (slots 1..N+1) and
        v_1..v_{N+1} (slots N+2..2N+2).  Each band is a DOF-level matrix
        in band storage, mass the mass matrix M.  The u row holds only
        K u = chi delta^4 S v_1, the coupling to v_1, and is the caller's
        to complete; the other rows are the recurrences with a zero
        right-hand side: A y_k - delta^2 S y_{k-1} = 0,
        A v_{N+1} - S y_{N+1} = 0 and A v_k - delta^2 S v_{k+1} = 0.
        Eliminating y and v from u's row leaves K u.
        """
        order, s, d2 = self.ctx.deconv_order, self.ctx.stiffness, self.ctx.delta**2
        a = mass + d2 * s
        v = order + 1  # slot of v_k is v + k
        blocks = [(0, v + 1, self.weight * d2 * s), (v + order + 1, order + 1, -s)]
        blocks += [(k, k - 1, -d2 * s) for k in range(1, order + 2)]
        blocks += [(v + k, v + k + 1, -d2 * s) for k in range(1, order + 1)]
        blocks += [(k, k, a) for k in range(1, 2 * order + 3)]
        return blocks


def stabilization_matrix(ctx: FilterContext, chi: float) -> Stabilization:
    """Coefficient-space stabilization operator chi delta^2 Pi^T S Pi."""
    if chi < 0:
        raise ValueError(f"chi must be nonnegative, got {chi}")
    return Stabilization(ctx=ctx, weight=chi * ctx.delta**2)
