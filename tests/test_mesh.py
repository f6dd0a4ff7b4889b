import numpy as np
import pytest

from lwrfem.analysis import l2_error
from lwrfem.mesh import (
    DIRICHLET,
    PERIODIC,
    FeFunction,
    QuadratureRule,
    build_mesh,
    evaluate,
    shape_values,
)
from lwrfem.operators import l2_project, scatter_band
from conftest import dense, simpson_l2_error


class TestBuildMesh:
    def test_p1_dirichlet_dof_layout(self):
        mesh = build_mesh(0.0, 1.0, 4, 1, DIRICHLET)
        assert mesh.n_dofs == 5
        assert np.allclose(mesh.dof_x, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_p1_periodic_dof_count(self):
        assert build_mesh(0.0, 1.0, 4, 1, PERIODIC).n_dofs == 4

    def test_p2_dirichlet_dof_count(self):
        mesh = build_mesh(0.0, 1.0, 4, 2, DIRICHLET)
        assert mesh.n_dofs == 9  # vertices plus midpoints
        assert np.allclose(np.diff(mesh.dof_x), 0.125)

    def test_periodic_wraps_last_vertex(self):
        mesh = build_mesh(0.0, 1.0, 4, 2, PERIODIC)
        assert mesh.n_dofs == 8
        assert mesh.cell_dofs[-1, -1] == 0

    def test_periodic_dofs_zig_zag_from_both_ends(self):
        mesh = build_mesh(0.0, 1.0, 4, 1, PERIODIC)
        assert np.allclose(mesh.dof_x, [0.0, 0.75, 0.25, 0.5])
        assert mesh.half_band == 2
        mesh = build_mesh(0.0, 1.0, 4, 2, PERIODIC)
        assert np.allclose(mesh.dof_x, [0.0, 0.875, 0.125, 0.75, 0.25, 0.625, 0.375, 0.5])
        assert mesh.half_band == 4

    @pytest.mark.parametrize("degree,kind", [(1, DIRICHLET), (2, DIRICHLET), (1, PERIODIC), (2, PERIODIC)])
    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_band_scatter_matches_dense_assembly(self, degree, kind, n, rng):
        mesh = build_mesh(0.0, 1.0, n, degree, kind)
        local = rng.standard_normal((n, degree + 1, degree + 1))
        expected = np.zeros((mesh.n_dofs, mesh.n_dofs))
        np.add.at(expected, (mesh.cell_dofs[:, :, None], mesh.cell_dofs[:, None, :]), local)
        assert np.allclose(dense(scatter_band(mesh, local)), expected, atol=1e-14)
        assert mesh.half_band == (degree if kind == DIRICHLET else min(2 * degree,
                                                                         mesh.n_dofs - 1))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="degree must be 1 or 2, got 3"):
            build_mesh(0.0, 1.0, 4, 3, DIRICHLET)
        with pytest.raises(ValueError, match="need at least 2 elements, got 1"):
            build_mesh(0.0, 1.0, 1, 1, DIRICHLET)
        with pytest.raises(ValueError):
            build_mesh(1.0, 0.0, 4, 1, DIRICHLET)


class TestQuadrature:
    @pytest.mark.parametrize("n_points", [1, 2, 3, 4, 5])
    def test_weights_sum_to_reference_length(self, n_points):
        rule = QuadratureRule.gauss_legendre(n_points)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("n_points", [1, 2, 3, 4, 5])
    def test_exact_for_polynomials(self, n_points):
        # n-point Gauss-Legendre integrates monomials up to degree 2n-1
        rule = QuadratureRule.gauss_legendre(n_points)
        for k in range(2 * n_points):
            value = float(rule.weights @ rule.points**k)
            assert value == pytest.approx(1.0 / (k + 1), abs=1e-14)


class TestEvaluate:
    @pytest.mark.parametrize("degree,kind", [(1, DIRICHLET), (2, DIRICHLET), (1, PERIODIC), (2, PERIODIC)])
    def test_partition_of_unity(self, degree, kind, rng):
        mesh = build_mesh(0.0, 1.0, 8, degree, kind)
        ones = FeFunction(mesh, np.ones(mesh.n_dofs))
        xs = rng.uniform(0.0, 1.0, size=50)
        assert np.abs(np.asarray(evaluate(ones, xs)) - 1.0).max() < 1e-14

    def test_p1_reproduces_linears(self):
        mesh = build_mesh(0.0, 1.0, 7, 1, DIRICHLET)
        f = FeFunction(mesh, mesh.dof_x)
        assert evaluate(f, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_p2_reproduces_quadratics(self):
        mesh = build_mesh(0.0, 1.0, 4, 2, DIRICHLET)
        f = FeFunction(mesh, mesh.dof_x**2)
        assert evaluate(f, 0.37) == pytest.approx(0.1369, abs=1e-14)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_interpolation_reproduces_basis_degree(self, degree, rng):
        mesh = build_mesh(0.0, 1.0, 5, degree, DIRICHLET)
        coeffs = rng.standard_normal(degree + 1)

        def poly(x):
            return sum(c * np.asarray(x) ** k for k, c in enumerate(coeffs))

        f = FeFunction(mesh, poly(mesh.dof_x))
        xs = rng.uniform(0.0, 1.0, size=40)
        assert np.abs(np.asarray(evaluate(f, xs)) - poly(xs)).max() < 1e-13

    def test_out_of_domain(self):
        mesh = build_mesh(0.0, 1.0, 4, 1, DIRICHLET)
        f = FeFunction(mesh, np.zeros(5))
        with pytest.raises(ValueError, match=r"point outside \[0\.0, 1\.0\]"):
            evaluate(f, 1.5)

    def test_continuity_across_element_boundaries(self, rng):
        # slopes are O(1/h), so a 1e-12 straddle moves the value by ~1e-10;
        # a genuine jump would register as O(1)
        mesh = build_mesh(0.0, 1.0, 8, 2, PERIODIC)
        f = FeFunction(mesh, rng.standard_normal(mesh.n_dofs))
        for vertex in np.arange(1, 8) / 8.0:
            left = evaluate(f, vertex - 1e-12)
            right = evaluate(f, vertex + 1e-12)
            assert left == pytest.approx(right, abs=1e-8)

    def test_periodic_wraparound_value(self, rng):
        mesh = build_mesh(0.0, 1.0, 8, 2, PERIODIC)
        f = FeFunction(mesh, rng.standard_normal(mesh.n_dofs))
        assert evaluate(f, 1.0) == pytest.approx(evaluate(f, 0.0), abs=1e-12)

    def test_coefficient_count_enforced(self):
        mesh = build_mesh(0.0, 1.0, 4, 1, DIRICHLET)
        with pytest.raises(ValueError):
            FeFunction(mesh, np.zeros(3))

    def test_shape_values_reject_bad_degree(self):
        with pytest.raises(ValueError, match="degree must be 1 or 2, got 3"):
            shape_values(3, np.array([0.5]))


class TestL2Project:
    def test_constants_project_to_constants(self):
        mesh = build_mesh(0.0, 1.0, 6, 2, PERIODIC)
        f = l2_project(lambda x: 2.5 * np.ones_like(np.asarray(x, dtype=float)), mesh)
        assert np.abs(f.coefficients - 2.5).max() < 1e-12

    def test_projection_is_identity_on_fe_functions(self, rng):
        mesh = build_mesh(0.0, 1.0, 9, 1, DIRICHLET)
        g = FeFunction(mesh, rng.standard_normal(mesh.n_dofs))
        projected = l2_project(lambda x: np.asarray(evaluate(g, x)), mesh)
        assert np.abs(projected.coefficients - g.coefficients).max() < 1e-12

    def test_second_order_projection_error(self):
        # oracle: fine-grid Simpson quadrature of the error integral
        g = lambda x: np.sin(2 * np.pi * x)
        errors = []
        for n in (16, 32):
            mesh = build_mesh(0.0, 1.0, n, 1, PERIODIC)
            errors.append(simpson_l2_error(l2_project(g, mesh), g))
        ratio = errors[0] / errors[1]
        assert 3.6 < ratio < 4.4

    @pytest.mark.parametrize("degree", [1, 2])
    def test_projection_beats_interpolation(self, degree):
        g = lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
        mesh = build_mesh(0.0, 1.0, 12, degree, PERIODIC)
        exact = lambda x, t: g(x)
        proj_err = l2_error(l2_project(g, mesh), exact, 0.0)
        interp_err = l2_error(FeFunction(mesh, g(mesh.dof_x)), exact, 0.0)
        assert proj_err <= interp_err + 1e-12
