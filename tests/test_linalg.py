import itertools

import numpy as np
import pytest
from scipy.linalg import lapack

from lwrfem.linalg import (
    PIVOT_RTOL, BandLU, SingularMatrixError, band_matvec, lu_solve, norm2,
)
from conftest import band, dense


def full_band(a):
    """(ab, kl, ku) of a square matrix with every entry inside the band."""
    n = a.shape[0]
    return band(a, n - 1, n - 1), n - 1, n - 1


def test_identity_solve():
    b = np.array([3.0, -1.0, 2.5])
    x = lu_solve(np.ones((1, 3)), b, 0, 0)
    assert np.allclose(x, b, atol=1e-15)


def test_diagonal_solve():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = lu_solve(band(a, 0, 0), np.array([2.0, 8.0]), 0, 0)
    assert np.allclose(x, [1.0, 2.0], atol=1e-15)


def test_recovers_known_solution(rng):
    a = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
    x_true = rng.standard_normal(20)
    x = lu_solve(*full_band(a)[:1], a @ x_true, *full_band(a)[1:])
    assert np.abs(x - x_true).max() < 1e-9


def test_residual_bound_random_systems(rng):
    for _ in range(100):
        n = rng.integers(2, 30)
        kl, ku = rng.integers(0, n, size=2)
        a = np.triu(np.tril(rng.standard_normal((n, n)), ku), -kl) + 3.0 * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(band(a, kl, ku), b, kl, ku)
        residual = np.linalg.norm(a @ x - b)
        bound = 1e-10 * (
            np.linalg.norm(a, "fro") * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert residual <= bound


def test_stacked_right_hand_sides(rng):
    a = np.triu(np.tril(rng.standard_normal((12, 12)), 3), -2) + 4.0 * np.eye(12)
    b = rng.standard_normal((12, 3))
    x = lu_solve(band(a, 2, 3), b, 2, 3)
    assert np.abs(a @ x - b).max() < 1e-12


def test_input_band_left_unchanged(rng):
    ab = band(np.diag(rng.uniform(1.0, 2.0, 6)) + np.diag(np.ones(5), 1), 0, 1)
    copy = ab.copy()
    lu_solve(ab, np.ones(6), 0, 1)
    assert np.array_equal(ab, copy)


# each matrix error is raised by the factorization, before any solve
ATTEMPTS = (
    lambda ab, kl, ku: lu_solve(ab, np.ones(np.shape(ab)[1]), kl, ku),
    lambda ab, kl, ku: BandLU().factor(ab, kl, ku),
)


def test_singular_matrix_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    # rank deficient beside a large column, and a zero column: the
    # per-column test, too, finds a pivot at rounding level or zero, and it
    # divides by no column's size, so a zero column warns of nothing
    beside_large = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1e15]])
    zero_column = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    for attempt in ATTEMPTS:
        for singular in (a, beside_large, zero_column):
            with np.errstate(all="raise"), pytest.raises(SingularMatrixError,
                                                         match="below threshold"):
                attempt(band(singular, 1, 1), 1, 1)
        with pytest.raises(SingularMatrixError, match="zero matrix"):
            attempt(np.zeros((3, 3)), 1, 1)


def test_small_pivot_on_the_diagonal_band_row_raises():
    # tridiagonal, rank deficient up to a pivot of PIVOT_RTOL, a third of
    # the threshold PIVOT_RTOL times the largest entry
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + PIVOT_RTOL, 0.0], [0.0, 0.0, 3.0]])
    for attempt in ATTEMPTS:
        with pytest.raises(SingularMatrixError, match="below threshold"):
            attempt(band(a, 1, 1), 1, 1)


def test_columns_of_different_scales_factor(rng):
    # a well-conditioned matrix whose columns are then scaled by 1 and
    # 1e14 in turn: its smallest pivot lies far below PIVOT_RTOL times the
    # largest entry, but each pivot is of its own column's size, so the
    # factorization stands, and it solves as the unscaled matrix does
    a = np.diag(rng.uniform(2.0, 3.0, 6)) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    scales = np.array([1.0, 1e14] * 3)
    b = rng.standard_normal(6)
    for attempt in ATTEMPTS:
        attempt(band(a * scales, 1, 1), 1, 1)
    x = lu_solve(band(a * scales, 1, 1), b, 1, 1)
    assert np.allclose(x * scales, np.linalg.solve(a, b), rtol=1e-12)


def test_non_finite_entries_rejected():
    for value, attempt in itertools.product((np.nan, np.inf, -np.inf), ATTEMPTS):
        ab = band(np.eye(3), 1, 1)
        ab[1, 1] = value
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            attempt(ab, 1, 1)


def test_dimension_checks():
    with pytest.raises(ValueError, match=r"expected kl \+ ku \+ 1 band rows for kl = 1, "
                                         r"ku = 1, got shape \(2, 3\)"):
        lu_solve(np.ones((2, 3)), np.ones(3), 1, 1)
    with pytest.raises(ValueError, match="band rows"):
        lu_solve(np.ones((3, 3)), np.ones(3), -1, 3)
    with pytest.raises(ValueError, match="band rows"):
        BandLU().factor(np.ones((2, 3)), 1, 1)
    with pytest.raises(ValueError, match="right-hand side length 4 does not match matrix size 3"):
        lu_solve(band(np.eye(3), 1, 1), np.ones(4), 1, 1)


def random_band(rng, n, kl, ku):
    """A well-conditioned random band, zero outside the matrix, in Fortran order."""
    a = dense(rng.standard_normal((kl + ku + 1, n)), kl, ku) + 4.0 * np.eye(n)
    return np.asfortranarray(band(a, kl, ku))


def gbsv(ab, b, kl, ku):
    """The one-call LAPACK band solve, on a zeroed copy with room for the fill-in."""
    lu = np.zeros((2 * kl + ku + 1, ab.shape[1]), order="F")
    lu[kl:] = ab
    return lapack.dgbsv(kl, ku, lu, b)[2]


# (n, kl, ku): kl != ku, the P2 ladder's augmented system, and tiny
# systems with n <= kl + ku, whose bands hold entries outside the matrix
SHAPES = ((387, 4, 5), (1005, 12, 13), (40, 3, 1), (7, 0, 3), (5, 2, 2), (4, 2, 2), (3, 4, 5),
          (2, 1, 0), (1, 0, 0))


@pytest.mark.parametrize("n,kl,ku", SHAPES)
def test_factor_then_solve_is_gbsv_bit_for_bit(rng, n, kl, ku):
    factors = BandLU()
    for _ in range(2):  # the second factorization reuses the first one's storage
        ab = random_band(rng, n, kl, ku)
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            expected = gbsv(ab, b, kl, ku)
            assert np.array_equal(lu_solve(ab, b, kl, ku), expected)
            assert np.array_equal(lu_solve(ab, b, kl, ku, out=factors), expected)
        factors.factor(ab, kl, ku)
        b = rng.standard_normal(n)
        assert np.array_equal(factors.solve(b), gbsv(ab, b, kl, ku))


def test_lu_solve_leaves_its_factors_in_out(rng):
    ab, b, c = random_band(rng, 30, 2, 3), rng.standard_normal(30), rng.standard_normal(30)
    factors = BandLU()
    lu_solve(ab, b, 2, 3, out=factors)
    assert np.array_equal(factors.solve(c), lu_solve(ab, c, 2, 3))


def test_refactored_workspace_never_solves_with_the_old_band(rng):
    factors, b = BandLU(), rng.standard_normal(12)
    old, new = random_band(rng, 12, 1, 2), random_band(rng, 12, 1, 2)
    factors.factor(old, 1, 2)
    factors.factor(new, 1, 2)
    assert np.array_equal(factors.solve(b), lu_solve(new, b, 1, 2))
    wider = random_band(rng, 9, 2, 2)  # another shape: new storage
    factors.factor(wider, 2, 2)
    assert np.array_equal(factors.solve(b[:9]), lu_solve(wider, b[:9], 2, 2))
    # a failed factorization leaves nothing to solve with, not the last factors
    failures = [(band(np.array([[1.0, 2.0], [2.0, 4.0]]), 1, 1), 1, 1, SingularMatrixError),
                (np.zeros((3, 3)), 1, 1, SingularMatrixError),
                (np.full((3, 3), np.nan), 1, 1, ValueError),
                (np.ones((2, 3)), 1, 1, ValueError)]
    for ab, kl, ku, error in failures:
        factors.factor(new, 1, 2)
        with pytest.raises(error):
            factors.factor(ab, kl, ku)
        with pytest.raises(ValueError, match="no factorization to solve with"):
            factors.solve(b)
    with pytest.raises(ValueError, match="no factorization to solve with"):
        BandLU().solve(b)


def test_band_matvec_matches_dense(rng):
    # n <= 2 w (the last three) is below the BLAS wrapper's m >= kl + ku + 1
    for n, w in ((7, 1), (9, 2), (3, 4), (2, 2), (4, 2)):
        ab = rng.standard_normal((2 * w + 1, n))
        ab = band(dense(ab), w, w)  # entries outside the matrix zeroed
        x = rng.standard_normal(n)
        y = band_matvec(ab, x)
        assert y.shape == (n,)
        assert np.abs(y - dense(ab) @ x).max() < 1e-13
        # the BLAS wrapper takes a longer or 2-D x without an error
        for bad in (np.ones(n + 1), np.ones(n - 1), np.ones((n, 2)), np.ones((1, n))):
            with pytest.raises(ValueError, match=rf"expected a vector of shape \({n},\)"):
                band_matvec(ab, bad)


def test_norm2_neither_underflows_nor_overflows():
    # squaring first would read 1e-170 as 0 and 1e200 as inf
    assert norm2(np.array([1e-170, 0.0])) == 1e-170
    assert norm2(np.array([1e200, -1e200])) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert norm2(np.array([3.0, -4.0])) == 5.0
    assert norm2(np.array([1.0, -np.inf])) == np.inf
    assert np.isnan(norm2(np.array([np.nan, 1.0])))
