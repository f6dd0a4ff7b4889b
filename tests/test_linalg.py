import numpy as np
import pytest

from lwrfem.linalg import PIVOT_RTOL, SingularMatrixError, band_matvec, lu_solve
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


def test_singular_matrix_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        lu_solve(band(a, 1, 1), np.array([1.0, 1.0]), 1, 1)
    with pytest.raises(SingularMatrixError, match="zero matrix"):
        lu_solve(np.zeros((3, 3)), np.ones(3), 1, 1)


def test_small_pivot_on_the_diagonal_band_row_raises():
    # tridiagonal, rank deficient up to a pivot of PIVOT_RTOL, a third of
    # the threshold PIVOT_RTOL times the largest entry
    a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + PIVOT_RTOL, 0.0], [0.0, 0.0, 3.0]])
    with pytest.raises(SingularMatrixError, match="below threshold"):
        lu_solve(band(a, 1, 1), np.ones(3), 1, 1)


def test_non_finite_entries_rejected():
    for value in (np.nan, np.inf, -np.inf):
        ab = band(np.eye(3), 1, 1)
        ab[1, 1] = value
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            lu_solve(ab, np.ones(3), 1, 1)


def test_dimension_checks():
    with pytest.raises(ValueError, match=r"expected kl \+ ku \+ 1 band rows for kl = 1, "
                                         r"ku = 1, got shape \(2, 3\)"):
        lu_solve(np.ones((2, 3)), np.ones(3), 1, 1)
    with pytest.raises(ValueError, match="band rows"):
        lu_solve(np.ones((3, 3)), np.ones(3), -1, 3)
    with pytest.raises(ValueError, match="right-hand side length 4 does not match matrix size 3"):
        lu_solve(band(np.eye(3), 1, 1), np.ones(4), 1, 1)


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
