import numpy as np
import pytest

from lwrfem.mesh import (
    ASSEMBLY_RULE,
    DIRICHLET,
    PERIODIC,
    FeFunction,
    QuadratureRule,
    build_mesh,
)
from lwrfem.operators import (
    REFERENCE,
    assemble,
    b_jacobian,
    b_residual,
    forcing_vector,
    load_vector,
    scatter_band,
)
from lwrfem.linalg import band_matvec
from conftest import (
    b_form, dense, element_values, fe_values_on_rule, integrate_elementwise, random_fe,
)


def quadrature_b_residual(rho):
    """b(rho, rho, phi_i) from rho rho' at the assembly quadrature points."""
    uq, duq = element_values(rho, ASSEMBLY_RULE)
    return load_vector(rho.mesh, uq * duq)


def quadrature_b_jacobian(rho):
    """Band storage of int (rho phi_j' + rho' phi_j) phi_i dx, by quadrature."""
    mesh, rule = rho.mesh, ASSEMBLY_RULE
    basis, dbasis = rule.values[mesh.degree], rule.derivatives[mesh.degree]
    uq, duq = element_values(rho, rule)
    local = mesh.h * np.einsum("q,eq,qj,qi->eij", rule.weights, uq, dbasis / mesh.h, basis)
    local += mesh.h * np.einsum("q,eq,qj,qi->eij", rule.weights, duq, basis, basis)
    return scatter_band(mesh, local)


@pytest.fixture(scope="module")
def periodic_mesh():
    return build_mesh(0.0, 1.0, 16, 1, PERIODIC)


@pytest.fixture(scope="module")
def periodic_ops(periodic_mesh):
    return assemble(periodic_mesh)


def dense_ops(ops):
    """(M, S, C) of assembled operators as dense matrices."""
    return dense(ops.mass), dense(ops.stiffness), dense(ops.convection)


class TestAssemble:
    def test_p1_interior_mass_row(self):
        # hand assembly of the standard P1 element mass matrix, h = 1/2
        ops = assemble(build_mesh(0.0, 1.0, 2, 1, DIRICHLET))
        assert np.allclose(dense(ops.mass)[1], [1.0 / 12.0, 1.0 / 3.0, 1.0 / 12.0], atol=1e-14)

    @pytest.mark.parametrize("degree,kind", [(1, DIRICHLET), (2, DIRICHLET), (1, PERIODIC), (2, PERIODIC)])
    def test_mass_rows_sum_to_domain_length(self, degree, kind):
        ops = assemble(build_mesh(0.0, 1.0, 7, degree, kind))
        assert dense(ops.mass).sum() == pytest.approx(1.0, abs=1e-13)

    def test_stiffness_annihilates_constants_periodic(self, periodic_ops):
        ones = np.ones(periodic_ops.mesh.n_dofs)
        assert np.abs(band_matvec(periodic_ops.stiffness, ones)).max() < 1e-13

    @pytest.mark.parametrize("degree", [1, 2])
    def test_convection_skew_symmetric_periodic(self, degree):
        ops = assemble(build_mesh(0.0, 1.0, 12, degree, PERIODIC))
        convection = dense(ops.convection)
        assert np.abs(convection + convection.T).max() < 1e-13

    @pytest.mark.parametrize("degree", [1, 2])
    def test_mass_and_stiffness_symmetric(self, degree):
        ops = assemble(build_mesh(0.0, 1.0, 9, degree, DIRICHLET))
        mass, stiffness, _ = dense_ops(ops)
        assert np.abs(mass - mass.T).max() < 1e-13
        assert np.abs(stiffness - stiffness.T).max() < 1e-13

    def test_mass_positive_definite(self, periodic_ops):
        np.linalg.cholesky(dense(periodic_ops.mass))  # raises if not SPD

    def test_stiffness_positive_semidefinite(self, periodic_ops):
        eigenvalues = np.linalg.eigvalsh(dense(periodic_ops.stiffness))
        assert eigenvalues.min() >= -1e-12 * max(eigenvalues.max(), 1.0)


class TestForcingVector:
    def test_zero_forcing(self, periodic_mesh):
        out = forcing_vector(lambda x, t: np.zeros_like(x), 0.3, periodic_mesh)
        assert np.abs(out).max() == 0.0

    def test_constant_forcing_equals_mass_action(self, periodic_mesh, periodic_ops):
        out = forcing_vector(lambda x, t: np.ones_like(x), 0.0, periodic_mesh)
        expected = band_matvec(periodic_ops.mass, np.ones(periodic_mesh.n_dofs))
        assert np.allclose(out, expected, atol=1e-14)

    def test_time_argument_passed_through(self, periodic_mesh, periodic_ops):
        out = forcing_vector(lambda x, t: np.full_like(x, t), 2.0, periodic_mesh)
        expected = 2.0 * band_matvec(periodic_ops.mass, np.ones(periodic_mesh.n_dofs))
        assert np.allclose(out, expected, atol=1e-13)


class TestTrilinearForm:
    def test_constants_give_zero(self, periodic_mesh):
        c = FeFunction(periodic_mesh, np.full(periodic_mesh.n_dofs, 1.7))
        w = FeFunction(periodic_mesh, np.full(periodic_mesh.n_dofs, -0.4))
        assert b_form(c, c, w) == pytest.approx(0.0, abs=1e-14)

    def test_skew_symmetry_random_triples(self, rng):
        mesh = build_mesh(0.0, 1.0, 10, 2, PERIODIC)
        for _ in range(100):
            u, v, w = (random_fe(mesh, rng) for _ in range(3))
            scale = max(abs(b_form(u, v, w)), 1.0)
            assert abs(b_form(u, v, w) + b_form(u, w, v)) <= 1e-12 * scale

    def test_vanishes_with_repeated_last_arguments(self, rng):
        mesh = build_mesh(0.0, 1.0, 10, 1, PERIODIC)
        for _ in range(20):
            u, w = random_fe(mesh, rng), random_fe(mesh, rng)
            assert abs(b_form(u, w, w)) <= 1e-12 * max(1.0, np.abs(w.coefficients).max()) ** 3

    @pytest.mark.parametrize("degree", [1, 2])
    def test_identity_two_term_split(self, degree, rng):
        # b(u,v,w) = (1/3) int u v' w - (1/3) int v w' u, on periodic meshes
        mesh = build_mesh(0.0, 1.0, 8, degree, PERIODIC)
        for _ in range(30):
            fu, fv, fw = (random_fe(mesh, rng) for _ in range(3))
            u, du = fe_values_on_rule(fu)
            v, dv = fe_values_on_rule(fv)
            w, dw = fe_values_on_rule(fw)
            expected = (
                integrate_elementwise(mesh, u * dv * w)
                - integrate_elementwise(mesh, v * dw * u)
            ) / 3.0
            scale = max(abs(expected), 1.0)
            assert b_form(fu, fv, fw) == pytest.approx(expected, abs=1e-12 * scale)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_identity_first_slot_by_parts(self, degree, rng):
        # b(u,v,w) = -(1/3) int v u' w - (2/3) int v w' u
        mesh = build_mesh(0.0, 1.0, 8, degree, PERIODIC)
        for _ in range(30):
            fu, fv, fw = (random_fe(mesh, rng) for _ in range(3))
            u, du = fe_values_on_rule(fu)
            v, dv = fe_values_on_rule(fv)
            w, dw = fe_values_on_rule(fw)
            expected = (
                -integrate_elementwise(mesh, v * du * w)
                - 2.0 * integrate_elementwise(mesh, v * dw * u)
            ) / 3.0
            scale = max(abs(expected), 1.0)
            assert b_form(fu, fv, fw) == pytest.approx(expected, abs=1e-12 * scale)

    def test_identity_quadratic_transport(self, rng):
        # 2 int u v' v dx = - int v u' v dx under periodicity
        mesh = build_mesh(0.0, 1.0, 8, 2, PERIODIC)
        for _ in range(30):
            fu, fv = random_fe(mesh, rng), random_fe(mesh, rng)
            u, du = fe_values_on_rule(fu)
            v, dv = fe_values_on_rule(fv)
            lhs = 2.0 * integrate_elementwise(mesh, u * dv * v)
            rhs = -integrate_elementwise(mesh, v * du * v)
            scale = max(abs(lhs), 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-12 * scale)


class TestTransportTensor:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_tensor_is_the_exact_integral(self, degree):
        # int phi_j phi_k' phi_i on the reference element, by a 7-point rule
        rule = QuadratureRule.gauss_legendre(7)
        w, basis, dbasis = rule.weights, rule.values[degree], rule.derivatives[degree]
        exact = np.einsum("q,qi,qj,qk->ijk", w, basis, basis, dbasis)
        assert np.abs(REFERENCE[degree].transport - exact).max() <= 1e-15
        assert not REFERENCE[degree].transport.flags.writeable
        # so are the mass, stiffness and convection tables, to a few units
        # in the last place of their largest entry (P2 stiffness: 16/3)
        for name, table in (
            ("mass", np.einsum("q,qi,qj->ij", w, basis, basis)),
            ("stiffness", np.einsum("q,qi,qj->ij", w, dbasis, dbasis)),
            ("convection", np.einsum("q,qi,qj->ij", w, basis, dbasis)),
        ):
            reference = getattr(REFERENCE[degree], name)
            assert np.abs(reference - table).max() <= 2e-15 * np.abs(table).max(), name
            assert not reference.flags.writeable, name

    @pytest.mark.parametrize("kind", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_residual_and_jacobian_match_quadrature(self, degree, kind, rng):
        mesh = build_mesh(0.0, 1.0, 9, degree, kind)
        for _ in range(10):
            rho = random_fe(mesh, rng)
            assert np.abs(b_residual(rho) - quadrature_b_residual(rho)).max() <= 1e-14
            assert np.abs(b_jacobian(rho) - quadrature_b_jacobian(rho)).max() <= 1e-14


class TestBResidual:
    def test_constant_state_gives_zero(self, periodic_mesh):
        c = FeFunction(periodic_mesh, np.full(periodic_mesh.n_dofs, 0.9))
        assert np.abs(b_residual(c)).max() < 1e-14

    def test_entries_match_scalar_form(self, rng):
        mesh = build_mesh(0.0, 1.0, 6, 2, PERIODIC)
        rho = random_fe(mesh, rng)
        res = b_residual(rho)
        for i in range(mesh.n_dofs):
            basis = FeFunction(mesh, np.eye(mesh.n_dofs)[i])
            assert res[i] == pytest.approx(b_form(rho, rho, basis), abs=1e-13)

    def test_energy_neutrality_periodic(self, rng):
        mesh = build_mesh(0.0, 1.0, 12, 1, PERIODIC)
        for _ in range(20):
            rho = random_fe(mesh, rng)
            value = rho.coefficients @ b_residual(rho)
            scale = max(np.abs(rho.coefficients).max() ** 3, 1.0)
            assert abs(value) <= 1e-12 * scale


class TestBJacobian:
    def test_zero_state_gives_zero_matrix(self, periodic_mesh):
        zero = FeFunction(periodic_mesh, np.zeros(periodic_mesh.n_dofs))
        assert np.abs(b_jacobian(zero)).max() == 0.0

    def test_finite_difference_oracle(self, rng):
        mesh = build_mesh(0.0, 1.0, 8, 2, PERIODIC)
        rho, direction = random_fe(mesh, rng), random_fe(mesh, rng)
        jac = b_jacobian(rho)
        eps = 1e-6
        bumped = FeFunction(mesh, rho.coefficients + eps * direction.coefficients)
        fd = (b_residual(bumped) - b_residual(rho)) / eps
        assert np.abs(fd - band_matvec(jac, direction.coefficients)).max() < 50.0 * eps

    @pytest.mark.parametrize("kind", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_central_difference_oracle(self, degree, kind, rng):
        # b_residual is quadratic, so a central difference is exact up to rounding
        mesh = build_mesh(0.0, 1.0, 9, degree, kind)
        rho, direction = random_fe(mesh, rng), random_fe(mesh, rng)
        eps = 1e-3
        bumped = [FeFunction(mesh, rho.coefficients + sign * eps * direction.coefficients)
                  for sign in (1.0, -1.0)]
        fd = (b_residual(bumped[0]) - b_residual(bumped[1])) / (2.0 * eps)
        exact = band_matvec(b_jacobian(rho), direction.coefficients)
        assert np.abs(fd - exact).max() <= 1e-11

    def test_linearity_in_state(self, rng):
        mesh = build_mesh(0.0, 1.0, 8, 1, PERIODIC)
        rho = random_fe(mesh, rng)
        doubled = FeFunction(mesh, 2.0 * rho.coefficients)
        assert np.allclose(b_jacobian(doubled), 2.0 * b_jacobian(rho), atol=1e-13)

    def test_jacobian_action_on_state_doubles_residual(self, rng):
        # b is quadratic in rho, so J(rho) rho = 2 b_residual(rho)
        mesh = build_mesh(0.0, 1.0, 8, 2, PERIODIC)
        rho = random_fe(mesh, rng)
        assert np.allclose(
            band_matvec(b_jacobian(rho), rho.coefficients), 2.0 * b_residual(rho), atol=1e-12
        )
