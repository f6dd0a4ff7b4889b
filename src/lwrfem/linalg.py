"""Banded linear algebra kernel: a checked LU factorization, its solve, a band product and a norm.

A matrix with kl sub-diagonals and ku super-diagonals is held in LAPACK
band storage, ab[ku + i - j, j] = a[i, j], an array of shape
(kl + ku + 1, n); entries of ab outside the matrix are zero.  Every
operator of the solver is banded on a 1D mesh, so a factorization
costs O(n kl (kl + ku)) time and O(n (kl + ku)) memory, and a solve
with it O(n (kl + ku)).

The factorization and the solve are separate steps, LAPACK gbtrf (LU
with partial pivoting) and gbtrs, so that one factor can serve several
right-hand sides: the simplified (chord) Newton iteration re-solves with
a factor it has already built (see ``stepping.newton_solve``).  A
``BandLU`` holds the factors in storage that it reuses for every later
factorization of a band of the same shape; gbtrf followed by gbtrs
gives the same bits as gbsv.  Every check is made at factor time and
takes no band-sized scratch: the band's shape, its entries
(max(max ab, -min ab) is the largest entry magnitude, finite only if
every entry is), the zero matrix and the pivot threshold, with its
per-column fallback.  ``lu_solve`` is one factorization
and one solve.

The product is one BLAS gbmv call, which reads the same storage.  Bands
are kept in Fortran order: the f2py wrapper silently copies a C-ordered
one on every call.  The wrapper checks neither the length of x against
the band's n nor x's rank, so ``band_matvec`` does; and it requires at
least kl + ku + 1 result rows, so on a tiny mesh (n <= 2w, such as a
periodic P1 mesh of 2 to 4 elements) the call asks for that many rows,
of which the rows past n are dropped.

The norm is one BLAS nrm2 call, which scales as it sums: it neither
underflows nor overflows where the Euclidean norm itself is a finite
nonzero double (Anderson, Algorithm 978: Safe scaling in the Level 1
BLAS, ACM TOMS 44, 2017), and it is NaN or inf where an entry is.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs


class SingularMatrixError(ValueError):
    """A matrix that cannot be factored: a pivot below the singularity threshold,
    a leading minor that is not positive definite, or an entry that overflows."""


# Pivot smaller than this fraction of the largest initial entry magnitude
# is treated as an exact zero.
PIVOT_RTOL = 1e-14

_GBTRF, _GBTRS = get_lapack_funcs(("gbtrf", "gbtrs"), (np.zeros(1),))
_GBMV, _NRM2 = get_blas_funcs(("gbmv", "nrm2"), (np.zeros(1),))


class BandLU:
    """LU factors of one band matrix, in storage reused by the next factorization.

    ``factor(ab, kl, ku)`` factors A and ``solve(b)`` solves A x = b with
    the factors of the last successful factorization.  The storage, the
    (2 kl + ku + 1, n) array gbtrf fills, is allocated by the first
    factorization and again only when the band's shape changes.
    """

    def __init__(self) -> None:
        self.lu = np.zeros((0, 0), order="F")  # gbtrf's first kl rows hold fill-in
        self.kl = self.ku = 0
        self.pivots: np.ndarray | None = None  # None: no factorization to solve with

    def factor(self, ab: np.ndarray, kl: int, ku: int) -> None:
        """Factor A, given in band storage; ab itself is left unchanged.

        Raises ValueError for a band of other than kl + ku + 1 rows or with
        non-finite entries, and SingularMatrixError when a pivot magnitude
        (the diagonal of U) falls below PIVOT_RTOL times the largest entry
        magnitude of A and the column test fails too: a pivot is zero, or
        below PIVOT_RTOL times the largest magnitude of its own column.
        Scaling a column scales its pivot alike, so the column test does
        not see column scales, such as the M/dt of a Newton band's rho
        columns at a tiny dt.  Every matrix that passes the first test
        passes the column test, which therefore runs only after the first
        fails; the message gives the first test's figures.  No comparison
        divides, so a zero column raises without a NumPy warning.  A failed
        factorization leaves nothing to solve with.
        """
        self.pivots = None
        ab = np.asarray(ab, dtype=float)
        if min(kl, ku) < 0 or ab.ndim != 2 or ab.shape[0] != kl + ku + 1:
            raise ValueError(
                f"expected kl + ku + 1 band rows for kl = {kl}, ku = {ku}, got shape {ab.shape}"
            )
        scale = max(ab.max(), -ab.min())
        if not np.isfinite(scale):
            raise ValueError("matrix contains non-finite entries")
        if scale == 0.0:
            raise SingularMatrixError("zero matrix")
        shape = (2 * kl + ku + 1, ab.shape[1])
        if self.lu.shape != shape:
            self.lu = np.zeros(shape, order="F")
        self.kl, self.ku = kl, ku
        self.lu[kl:] = ab
        _, pivots, _ = _GBTRF(self.lu, kl, ku, overwrite_ab=True)
        # an exactly zero pivot (gbtrf's info > 0) is caught here too
        diagonal = np.abs(self.lu[kl + ku])
        smallest = diagonal.min()
        if smallest < PIVOT_RTOL * scale and (smallest == 0.0 or np.any(
                diagonal < PIVOT_RTOL * np.maximum(ab.max(axis=0), -ab.min(axis=0)))):
            raise SingularMatrixError(f"pivot {smallest:.3e} below threshold "
                                      f"{PIVOT_RTOL * scale:.3e}")
        self.pivots = pivots

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with A x = b for the last factored A; b is a vector or stacked columns.

        Raises ValueError for a b of another length, and when no
        factorization holds (none made, or the last one failed).
        """
        if self.pivots is None:
            raise ValueError("no factorization to solve with")
        b = np.asarray(b, dtype=float)
        n = self.lu.shape[1]
        if b.shape[0] != n:
            raise ValueError(
                f"right-hand side length {b.shape[0]} does not match matrix size {n}"
            )
        x, _ = _GBTRS(self.lu, self.kl, self.ku, b, self.pivots)
        return x


def lu_solve(
    ab: np.ndarray, b: np.ndarray, kl: int, ku: int, out: BandLU | None = None
) -> np.ndarray:
    """Solve A x = b for A in band storage; b is a vector or stacked columns.

    One factorization (``BandLU.factor``, with its checks and errors) and
    one solve.  The factors go into out when it is given, which can then
    solve further right-hand sides with them, and into fresh storage
    otherwise.  ab itself is left unchanged.
    """
    factors = BandLU() if out is None else out
    factors.factor(ab, kl, ku)
    return factors.solve(b)


def band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product A x of a square band matrix with kl = ku = (rows - 1) / 2, by BLAS gbmv.

    Raises ValueError unless x has shape (n,) for the band's n columns.
    """
    rows, n = ab.shape
    if np.shape(x) != (n,):
        raise ValueError(f"expected a vector of shape ({n},), got shape {np.shape(x)}")
    w = rows // 2
    return _GBMV(max(n, rows), n, w, w, 1.0, ab, x)[:n]


def norm2(x: np.ndarray) -> float:
    """Euclidean norm of the entries of a non-empty float vector, by BLAS nrm2."""
    return _NRM2(x)
