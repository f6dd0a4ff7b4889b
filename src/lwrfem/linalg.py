"""Dense linear algebra kernel: checked LU factorization and solves.

Matrices are plain 2-D float64 numpy arrays (row-major), vectors 1-D
arrays.  Factorization is LAPACK getrf (partial pivoting) via scipy;
systems stay desk-scale (a few hundred unknowns), so dense O(n^3) is
fine and nothing sparse is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class SingularMatrixError(ValueError):
    """A pivot fell below the singularity threshold."""


# Pivot smaller than this fraction of the largest initial entry magnitude
# is treated as an exact zero.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class LuFactorization:
    """Cached LU factors of a square matrix, reusable for many solves."""

    lu: np.ndarray
    piv: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (b may be a matrix of stacked right-hand sides)."""
        return scipy.linalg.lu_solve((self.lu, self.piv), b)


def lu_factorize(a: np.ndarray) -> LuFactorization:
    """Factor a square matrix with partial pivoting.

    Raises SingularMatrixError when any pivot magnitude falls below
    PIVOT_RTOL times the largest entry magnitude of the input.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    with np.errstate(all="ignore"), warnings.catch_warnings():
        # exactly-zero pivots are reported via SingularMatrixError below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {PIVOT_RTOL * scale:.3e}"
        )
    return LuFactorization(lu=lu, piv=piv)


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the dense system A x = b by LU with partial pivoting."""
    b = np.asarray(b, dtype=float)
    factors = lu_factorize(a)
    if b.shape[0] != factors.lu.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side length {b.shape[0]} does not match matrix size "
            f"{factors.lu.shape[0]}"
        )
    return factors.solve(b)
