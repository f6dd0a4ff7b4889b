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

    Pi u = y_{N+1},          A y_k = delta^2 S y_{k-1},  y_0 = u.

The term's operator is K = chi delta^2 Pi^T S Pi.  A and S are
symmetric, so S (I - F) = delta^2 S A^{-1} S = (I - F)^T S, and S
commutes through Pi^T: Pi^T S Pi = S Pi^2, the discrete form of the
differential filter being self-adjoint and commuting with -Delta
(Layton and Rebholz, Approximate Deconvolution Models of Turbulence,
LNM 2042, 2012).  So

    K u = chi delta^2 S y_{2N+2},

the same recurrence run 2N + 2 times, and the dissipation
chi delta^2 (u*_x, u*_x) = chi delta^2 (Pi u) . S (Pi u) is the quadratic
form u . K u, one dot product with the product already formed.

Every operator is banded on a 1D mesh, so A is factored once per
(mesh, delta, N) by a banded Cholesky factorization, and each solve is
one LAPACK pbtrs in O(n) time.  The Newton step of the stepper poses the
recurrence as extra unknowns of one banded system, whose blocks
``Stabilization.newton_blocks`` returns: this module numbers those
unknowns and builds their equations, and the stepper lays them out in
its vectors.  A solution d of that system carries y_{2N+2} = Pi^2 d_u
among its unknowns, so K d_u is one product with no filter solve
(``Stabilization.from_pi2``); the stepper runs the chain once per time
step and carries K through Newton by linearity.  On Dirichlet
meshes the filter equations are posed on all DOFs with natural boundary
conditions (no rows are constrained), which keeps A symmetric positive
definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .linalg import PIVOT_RTOL, SingularMatrixError, band_matvec
from .operators import AssembledOperators

_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), (np.zeros(1),))


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
    """Factor A = M + delta^2 S once, for the filter solves of Pi = (I - F)^{N+1}.

    Raises SingularMatrixError, naming delta, when pbtrf finds a leading
    minor of A that is not positive definite, or when a pivot of the
    factor A = U^T U, U_ii^2, falls below PIVOT_RTOL times the largest
    entry magnitude of A, the threshold of ``BandLU.factor``: S maps
    constants to zero, so once delta^2 S swamps M, A is singular in
    double precision, and pbtrf tests only each pivot's sign.
    """
    if delta < 0:
        raise ValueError(f"filter radius must be nonnegative, got {delta}")
    if deconv_order < 0:
        raise ValueError(f"deconvolution order must be nonnegative, got {deconv_order}")
    w = operators.mesh.half_band
    upper = (operators.mass + delta**2 * operators.stiffness)[: w + 1]
    factor, info = _PBTRF(upper)
    if info:
        raise SingularMatrixError(f"filter matrix M + delta^2 S is not positive definite "
                                  f"at delta = {delta:g} (leading minor {info})")
    pivot, threshold = (factor[w] ** 2).min(), PIVOT_RTOL * np.abs(upper).max()
    if pivot < threshold:
        raise SingularMatrixError(f"filter matrix M + delta^2 S is singular at delta = "
                                  f"{delta:g} (pivot {pivot:.3e} below threshold {threshold:.3e})")
    return FilterContext(
        delta=float(delta), deconv_order=deconv_order, stiffness=operators.stiffness,
        factor=np.asfortranarray(factor),
    )


def fluctuation(ctx: FilterContext, u: np.ndarray) -> np.ndarray:
    """Pi u = y_{N+1}, by N + 1 filter solves A y_k = delta^2 S y_{k-1}."""
    d2, s = ctx.delta**2, ctx.stiffness
    for _ in range(ctx.deconv_order + 1):
        u = _PBTRS(ctx.factor, d2 * band_matvec(s, u))[0]
    return u


@dataclass(frozen=True, eq=False)
class Stabilization:
    """The operator K = chi delta^2 S Pi^2, applied by filter solves."""

    ctx: FilterContext
    weight: float  # chi delta^2

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """K u = chi delta^2 S Pi (Pi u): 2N + 2 filter solves and 2N + 3 products."""
        return self.from_pi2(fluctuation(self.ctx, fluctuation(self.ctx, u)))

    def from_pi2(self, y: np.ndarray) -> np.ndarray:
        """K u = chi delta^2 S y from y = Pi^2 u: one product, no filter solve."""
        return self.weight * band_matvec(self.ctx.stiffness, y)

    def newton_blocks(self, mass: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
        """The chain above as blocks (row, column, band) of one banded system.

        Unknowns per DOF: u (slot 0) and y_1..y_{2N+2} (slots 1..2N+2).
        Each band is a DOF-level matrix in band storage, mass the mass
        matrix M.  The u row holds only K u = chi delta^2 S y_{2N+2}, the
        coupling to y_{2N+2}, and is the caller's to complete; row k of the
        others is the recurrence A y_k - delta^2 S y_{k-1} = 0, all sharing
        one -delta^2 S band.  Eliminating the y from u's row leaves K u.
        """
        s, d2 = self.ctx.stiffness, self.ctx.delta**2
        last = 2 * self.ctx.deconv_order + 2
        a, coupling = mass + d2 * s, -d2 * s
        blocks = [(0, last, self.weight * s)]
        for k in range(1, last + 1):
            blocks += [(k, k - 1, coupling), (k, k, a)]
        return blocks


def stabilization_matrix(ctx: FilterContext, chi: float) -> Stabilization:
    """Coefficient-space stabilization operator chi delta^2 Pi^T S Pi = chi delta^2 S Pi^2.

    Raises SingularMatrixError when the band chi delta^2 S, which the
    Newton matrix holds (``Stabilization.newton_blocks``), overflows.
    """
    if chi < 0:
        raise ValueError(f"chi must be nonnegative, got {chi}")
    weight = chi * ctx.delta**2
    if not np.isfinite(weight * float(np.abs(ctx.stiffness).max())):
        raise SingularMatrixError(f"the Newton matrix's band chi delta^2 S overflows at "
                                  f"chi delta^2 = {weight:.3e}")
    return Stabilization(ctx=ctx, weight=weight)
