import numpy as np
import pytest

from lwrfem.linalg import SingularMatrixError, lu_solve


def test_identity_solve():
    b = np.array([3.0, -1.0, 2.5])
    x = lu_solve(np.eye(3), b)
    assert np.allclose(x, b, atol=1e-15)


def test_diagonal_solve():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = lu_solve(a, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-15)


def test_recovers_known_solution(rng):
    a = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
    x_true = rng.standard_normal(20)
    x = lu_solve(a, a @ x_true)
    assert np.abs(x - x_true).max() < 1e-9


def test_residual_bound_random_systems(rng):
    for _ in range(100):
        n = rng.integers(2, 30)
        a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        b = rng.standard_normal(n)
        x = lu_solve(a, b)
        residual = np.linalg.norm(a @ x - b)
        bound = 1e-10 * (
            np.linalg.norm(a, "fro") * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert residual <= bound


def test_singular_matrix_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        lu_solve(a, np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrixError, match="zero matrix"):
        lu_solve(np.zeros((3, 3)), np.ones(3))


def test_non_finite_entries_rejected():
    for value in (np.nan, np.inf, -np.inf):
        a = np.eye(3)
        a[1, 1] = value
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            lu_solve(a, np.ones(3))


def test_dimension_checks():
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(3, 2\)"):
        lu_solve(np.ones((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="right-hand side length 4 does not match matrix size 3"):
        lu_solve(np.eye(3), np.ones(4))

