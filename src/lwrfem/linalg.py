"""Banded linear algebra kernel: one checked LU solve and a band product.

A matrix with kl sub-diagonals and ku super-diagonals is held in LAPACK
band storage, ab[ku + i - j, j] = a[i, j], an array of shape
(kl + ku + 1, n); entries of ab outside the matrix are zero.  Every
operator of the solver is banded on a 1D mesh, so a factor-and-solve
costs O(n kl (kl + ku)) time and O(n (kl + ku)) memory.  The solve is
LAPACK gbsv (LU with partial pivoting) on a copy of ab; the checks
before it take no scratch: max(max ab, -min ab) is the largest entry
magnitude, and it is finite only if every entry is.

The product is one BLAS gbmv call, which reads the same storage.  Bands
are kept in Fortran order: the f2py wrapper silently copies a C-ordered
one on every call.  The wrapper checks neither the length of x against
the band's n nor x's rank, so ``band_matvec`` does; and it requires at
least kl + ku + 1 result rows, so on a tiny mesh (n <= 2w, such as a
periodic P1 mesh of 2 to 4 elements) the call asks for that many rows,
of which the rows past n are dropped.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs


class SingularMatrixError(ValueError):
    """A pivot fell below the singularity threshold."""


# Pivot smaller than this fraction of the largest initial entry magnitude
# is treated as an exact zero.
PIVOT_RTOL = 1e-14

_GBSV, = get_lapack_funcs(("gbsv",), (np.zeros(1),))
_GBMV, = get_blas_funcs(("gbmv",), (np.zeros(1),))


def lu_solve(ab: np.ndarray, b: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Solve A x = b for A in band storage; b is a vector or stacked columns.

    Raises ValueError for a band of other than kl + ku + 1 rows, a b of
    another length or non-finite entries, and SingularMatrixError when a
    pivot magnitude (the diagonal of U) falls below PIVOT_RTOL times the
    largest entry magnitude of A.  ab itself is left unchanged.
    """
    ab = np.asarray(ab, dtype=float)
    b = np.asarray(b, dtype=float)
    if min(kl, ku) < 0 or ab.ndim != 2 or ab.shape[0] != kl + ku + 1:
        raise ValueError(
            f"expected kl + ku + 1 band rows for kl = {kl}, ku = {ku}, got shape {ab.shape}"
        )
    n = ab.shape[1]
    if b.shape[0] != n:
        raise ValueError(
            f"right-hand side length {b.shape[0]} does not match matrix size {n}"
        )
    scale = max(ab.max(), -ab.min())
    if not np.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    lu = np.zeros((2 * kl + ku + 1, n), order="F")  # gbsv's first kl rows hold fill-in
    lu[kl:] = ab
    lu, _, x, _ = _GBSV(kl, ku, lu, b, overwrite_ab=True)
    # an exactly zero pivot (gbsv's info > 0, x not computed) is caught here too
    pivots = np.abs(lu[kl + ku])
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {PIVOT_RTOL * scale:.3e}"
        )
    return x


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product A x of a square band matrix with kl = ku = (rows - 1) / 2, by BLAS gbmv.

    Raises ValueError unless x has shape (n,) for the band's n columns.
    """
    rows, n = ab.shape
    if np.shape(x) != (n,):
        raise ValueError(f"expected a vector of shape ({n},), got shape {np.shape(x)}")
    w = rows // 2
    return _GBMV(max(n, rows), n, w, w, 1.0, ab, x)[:n]
