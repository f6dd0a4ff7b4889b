import numpy as np
import pytest

from lwrfem.filtering import build_filter_context, stabilization_matrix
from lwrfem.linalg import band_matvec
from lwrfem.mesh import DIRICHLET, PERIODIC, FeFunction, build_mesh
from lwrfem.operators import assemble, l2_project
from conftest import (
    ExtendedBase, FilterOracle, applied_base, dense, dense_stabilization_base,
    fe_values_on_rule, integrate_elementwise, norm, operator_matrix, random_fe,
)


@pytest.fixture(scope="module")
def setup():
    mesh = build_mesh(0.0, 1.0, 32, 1, PERIODIC)
    ops = assemble(mesh)
    ctx = build_filter_context(ops, delta=np.sqrt(mesh.h), deconv_order=1)
    return mesh, ops, ctx


@pytest.fixture(scope="module")
def oracle(setup):
    _, ops, ctx = setup
    return FilterOracle(ops, ctx.delta, deconv_order=1)


class TestFilterMatrix:
    def test_defining_equation(self, setup, oracle, rng):
        # the oracle's filter solves (M + delta^2 S) ubar = M u
        mesh, ops, ctx = setup
        for _ in range(10):
            u = random_fe(mesh, rng)
            ubar = oracle.filter(u).coefficients
            lhs = band_matvec(ops.mass + ctx.delta**2 * ops.stiffness, ubar)
            rhs = band_matvec(ops.mass, u.coefficients)
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_fluctuation_kills_constants(self, setup):
        mesh, ops, ctx = setup
        base = applied_base(ctx)
        assert np.abs(base @ np.ones(mesh.n_dofs)).max() < 1e-12 * np.abs(base).max()

    def test_stabilization_base_symmetric_psd(self, setup, rng):
        mesh, ops, ctx = setup
        base = applied_base(ctx)
        assert np.abs(base - base.T).max() < 1e-12
        for _ in range(100):
            x = rng.standard_normal(mesh.n_dofs)
            assert x @ (base @ x) >= -1e-12 * (x @ x)

    def test_invalid_build_arguments(self, setup):
        _, ops, _ = setup
        with pytest.raises(ValueError):
            build_filter_context(ops, delta=-0.1, deconv_order=0)
        with pytest.raises(ValueError):
            build_filter_context(ops, delta=0.1, deconv_order=-1)


class TestApplyFilter:
    def test_preserves_constants_periodic(self, setup, oracle):
        mesh, _, _ = setup
        c = FeFunction(mesh, np.full(mesh.n_dofs, 3.2))
        assert np.abs(oracle.filter(c).coefficients - 3.2).max() < 1e-12

    def test_zero_radius_is_identity(self, setup, rng):
        mesh, ops, _ = setup
        oracle0 = FilterOracle(ops, delta=0.0, deconv_order=1)
        u = random_fe(mesh, rng)
        assert np.abs(oracle0.filter(u).coefficients - u.coefficients).max() < 1e-11

    def test_sine_mode_attenuation_matches_symbol(self):
        # dense-solve path against the continuous transfer factor 1/(1 + delta^2 (2 pi)^2)
        mesh = build_mesh(0.0, 1.0, 64, 1, PERIODIC)
        ops = assemble(mesh)
        oracle = FilterOracle(ops, delta=0.1, deconv_order=0)
        u = l2_project(lambda x: np.sin(2 * np.pi * x), mesh)
        ubar = oracle.filter(u)
        assert norm(ubar, ops) < norm(u, ops)
        symbol = 1.0 / (1.0 + oracle.delta**2 * (2 * np.pi) ** 2)
        diff = FeFunction(mesh, ubar.coefficients - symbol * u.coefficients)
        assert norm(diff, ops) <= 0.01 * norm(u, ops)

    def test_contractive_in_mass_norm(self, setup, oracle, rng):
        mesh, ops, _ = setup
        for _ in range(100):
            u = random_fe(mesh, rng)
            assert norm(oracle.filter(u), ops) <= norm(u, ops) * (1 + 1e-12)


class TestDeconvolve:
    def test_order_zero_is_identity(self, setup, rng):
        mesh, ops, _ = setup
        oracle0 = FilterOracle(ops, delta=0.2, deconv_order=0)
        u = random_fe(mesh, rng)
        assert np.allclose(oracle0.deconvolve(u).coefficients, u.coefficients, atol=1e-14)

    def test_order_one_expansion(self, setup, oracle, rng):
        # D_1 ubar = 2 ubar - filter(ubar)
        mesh, _, _ = setup
        ubar = random_fe(mesh, rng)
        expected = 2.0 * ubar.coefficients - oracle.filter(ubar).coefficients
        assert np.allclose(oracle.deconvolve(ubar).coefficients, expected, atol=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_constants_fixed_for_any_order(self, setup, order):
        mesh, ops, _ = setup
        oracle = FilterOracle(ops, delta=0.3, deconv_order=order)
        c = FeFunction(mesh, np.full(mesh.n_dofs, -1.1))
        assert np.abs(oracle.deconvolve(c).coefficients + 1.1).max() < 1e-11


class TestFluctuation:
    def test_constants_give_zero(self, setup, oracle):
        mesh, _, _ = setup
        c = FeFunction(mesh, np.full(mesh.n_dofs, 5.0))
        assert np.abs(oracle.fluctuation(c).coefficients).max() < 1e-11

    def test_zero_radius_gives_zero(self, setup, rng):
        mesh, ops, _ = setup
        oracle0 = FilterOracle(ops, delta=0.0, deconv_order=2)
        u = random_fe(mesh, rng)
        assert np.abs(oracle0.fluctuation(u).coefficients).max() < 1e-10

    def test_matrix_and_operator_paths_agree(self, setup, oracle, rng):
        # u^T (Pi^T S Pi) v against the iterative fluctuation oracle
        mesh, ops, ctx = setup
        for _ in range(10):
            u, v = random_fe(mesh, rng), random_fe(mesh, rng)
            u_star, v_star = oracle.fluctuation(u), oracle.fluctuation(v)
            stiffness = dense(ops.stiffness)
            via_ops = u_star.coefficients @ (stiffness @ v_star.coefficients)
            via_matrix = u.coefficients @ (applied_base(ctx) @ v.coefficients)
            scale = np.sqrt(
                u_star.coefficients @ (stiffness @ u_star.coefficients)
                * (v_star.coefficients @ (stiffness @ v_star.coefficients))
            )
            assert abs(via_matrix - via_ops) <= 1e-11 * scale

    def test_linearity(self, setup, oracle, rng):
        mesh, _, _ = setup
        u, v = random_fe(mesh, rng), random_fe(mesh, rng)
        a, b = 0.7, -1.3
        combo = FeFunction(mesh, a * u.coefficients + b * v.coefficients)
        expected = (
            a * oracle.fluctuation(u).coefficients + b * oracle.fluctuation(v).coefficients
        )
        assert np.abs(oracle.fluctuation(combo).coefficients - expected).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_higher_deconvolution_reduces_smooth_fluctuation(self, k):
        mesh = build_mesh(0.0, 1.0, 32, 1, PERIODIC)
        ops = assemble(mesh)
        u = l2_project(lambda x: np.sin(2 * np.pi * k * x), mesh)
        norms = []
        for order in (0, 1):
            oracle = FilterOracle(ops, delta=np.sqrt(mesh.h), deconv_order=order)
            norms.append(norm(oracle.fluctuation(u), ops))
        assert norms[1] <= norms[0]


class TestStabilizationMatrix:
    def test_zero_chi_gives_zero_matrix(self, setup):
        _, _, ctx = setup
        stab = stabilization_matrix(ctx, 0.0)
        matrix = operator_matrix(stab, ctx.stiffness.shape[1])
        assert np.abs(matrix).max() == 0.0

    def test_negative_chi_rejected(self, setup):
        _, _, ctx = setup
        with pytest.raises(ValueError, match="chi must be nonnegative, got -1.0"):
            stabilization_matrix(ctx, -1.0)

    def test_quadratic_form_matches_fluctuation_gradient_norm(self, setup, oracle, rng):
        # oracle: quadrature of |d/dx fluctuation(u)|^2 via the operator path
        mesh, ops, ctx = setup
        chi = 0.8
        stab = stabilization_matrix(ctx, chi)
        for _ in range(10):
            u = random_fe(mesh, rng)
            star = oracle.fluctuation(u)
            _, dstar = fe_values_on_rule(star)
            expected = chi * ctx.delta**2 * integrate_elementwise(mesh, dstar * dstar)
            product = stab(u.coefficients)
            dissipation = u.coefficients @ product
            assert u.coefficients @ product == pytest.approx(expected, rel=1e-10)
            assert dissipation == pytest.approx(expected, rel=1e-10)


class TestAppliedBase:
    @pytest.mark.parametrize("kind", [PERIODIC, DIRICHLET])
    @pytest.mark.parametrize("degree,order", [(1, 0), (1, 3), (2, 1), (2, 2)])
    def test_filter_solves_match_dense_pi(self, kind, degree, order):
        # the chain of banded filter solves against Pi^T S Pi from a dense Pi
        ops = assemble(build_mesh(0.0, 1.0, 12, degree, kind))
        ctx = build_filter_context(ops, delta=0.2, deconv_order=order)
        expected = dense_stabilization_base(ops, 0.2, order)
        assert np.abs(applied_base(ctx) - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_stab_dissipation_against_extended_precision(self):
        # P2, h = delta = 0.01: B = Pi^T S Pi has entries of the size of S,
        # while c . (B c) on a smooth c is tiny, so only a chain of filter
        # solves keeps its digits.  Reference: y = Pi c by iterative
        # refinement in extended precision, then y . (S y).
        mesh = build_mesh(0.0, 1.0, 100, 2, DIRICHLET)
        ops = assemble(mesh)
        c = np.sin(np.pi * mesh.dof_x) ** 4
        delta = mesh.h
        extended = ExtendedBase(ops, delta)
        for order in (1, 3):
            reference = extended.form(c, order)
            stab = stabilization_matrix(build_filter_context(ops, delta, order), 1.0)
            value = c @ stab(c) / delta**2
            assert value == pytest.approx(reference, rel=1e-8), order
