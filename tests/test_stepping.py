import dataclasses
import weakref

import numpy as np
import pytest

from lwrfem.analysis import l2_error, run_error_inf
from lwrfem.filtering import build_filter_context, stabilization_matrix
from lwrfem.linalg import SingularMatrixError
from lwrfem.mesh import DIRICHLET, PERIODIC, FeFunction, MeshMismatchError, build_mesh
from lwrfem.operators import assemble, b_residual, forcing_vector
from lwrfem.scenarios import LEFT, RIGHT, manufactured
from lwrfem.stepping import (
    ModelParams,
    NoConvergenceError,
    Stepper,
    TimeGrid,
    be_step,
    energy_e,
    energy_z,
    mass_norm,
    newton_solve,
    run_time_filtered,
    time_filter_step,
)
from conftest import march, smooth_periodic, three_level_ops


@pytest.fixture(scope="module")
def periodic_setup():
    mesh = build_mesh(0.0, 1.0, 32, 1, PERIODIC)
    ops = assemble(mesh)
    return mesh, ops


def unforced(scenario):
    return dataclasses.replace(scenario, forcing=None)


class TestModelParamsAndGrid:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ModelParams(v_f=0.0)
        with pytest.raises(ValueError):
            ModelParams(chi=-1.0)
        with pytest.raises(ValueError):
            ModelParams(gamma=1.0)
        with pytest.raises(ValueError, match="delta"):
            ModelParams(delta=1e200)  # delta^2 overflows
        ModelParams(gamma=0.0)  # boundary value allowed

    def test_time_grid_consistency(self):
        grid = TimeGrid.to_final_time(0.1, 1.0)
        assert grid.n_steps == 10
        with pytest.raises(ValueError, match="dt must be positive"):
            TimeGrid(dt=-0.1, n_steps=5)
        with pytest.raises(ValueError, match="dt must be positive"):
            TimeGrid(dt=float("nan"), n_steps=5)
        with pytest.raises(ValueError, match="n_steps must be nonnegative"):
            TimeGrid(dt=0.1, n_steps=-1)
        # a final time between grid points is an error, not a silent t = 0.9
        with pytest.raises(ValueError, match="whole number of steps"):
            TimeGrid.to_final_time(0.3, 1.0)
        assert TimeGrid.to_final_time(1e-4, 0.1).n_steps == 1000  # inexact in binary


class TestNewtonSolve:
    def test_linear_system_one_iteration(self, rng):
        a = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        b = rng.standard_normal(6)
        x, iters, _ = newton_solve(lambda x: a @ x - b, lambda x: a, np.zeros(6))
        assert iters == 1
        assert np.linalg.norm(a @ x - b) < 1e-9

    def test_root_guess_zero_iterations(self):
        x, iters, _ = newton_solve(
            lambda x: x**2 - 4.0, lambda x: np.diag(2.0 * x), np.array([2.0])
        )
        assert iters == 0
        assert x[0] == 2.0

    def test_scalar_quadratic(self):
        x, iters, _ = newton_solve(
            lambda x: x**2 - 4.0, lambda x: np.diag(2.0 * x), np.array([3.0])
        )
        assert iters <= 6
        assert abs(x[0] - 2.0) < 1e-10

    def test_no_convergence_raises(self):
        # gradient pushes the iterate away from the (complex) roots
        with pytest.raises(NoConvergenceError):
            newton_solve(
                lambda x: x**2 + 1.0,
                lambda x: np.diag(2.0 * x),
                np.array([0.5]),
                max_iter=5,
            )

    @pytest.mark.parametrize(
        "residual",
        [
            lambda x: np.full_like(x, np.nan),  # non-finite at the guess
            lambda x: np.log(x),  # finite at the guess, NaN after the update
        ],
    )
    def test_non_finite_residual_raises(self, residual):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NoConvergenceError, match="non-finite"):
                newton_solve(residual, lambda x: np.diag(1.0 / x), np.array([0.1, 5.0]))

    def test_negative_max_iter_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            newton_solve(lambda x: x, lambda x: np.eye(1), np.ones(1), max_iter=-1)
        # zero iterations stay legal: a guess that is no root fails to converge
        with pytest.raises(NoConvergenceError):
            newton_solve(lambda x: x, lambda x: np.eye(1), np.ones(1), max_iter=0)

    def test_singular_jacobian_propagates(self):
        with pytest.raises(SingularMatrixError):
            newton_solve(
                lambda x: np.array([x[0] + x[1] - 1.0, 2.0 * (x[0] + x[1]) - 2.0]),
                lambda x: np.array([[1.0, 1.0], [2.0, 2.0]]),
                np.zeros(2),
            )


class TestThreeLevelOps:
    def test_equal_arguments(self, periodic_setup, rng):
        mesh, _ = periodic_setup
        u = smooth_periodic(mesh, rng)
        d, i = three_level_ops(u, u, u)
        assert np.allclose(i.coefficients, u.coefficients, atol=1e-15)
        assert np.abs(d.coefficients).max() < 1e-15

    def test_constant_arithmetic(self, periodic_setup):
        mesh, _ = periodic_setup
        c3 = FeFunction(mesh, np.full(mesh.n_dofs, 3.0))
        c2 = FeFunction(mesh, np.full(mesh.n_dofs, 2.0))
        c1 = FeFunction(mesh, np.full(mesh.n_dofs, 1.0))
        d, i = three_level_ops(c3, c2, c1)
        assert np.allclose(i.coefficients, 3.0, atol=1e-15)
        assert np.allclose(d.coefficients, 1.0, atol=1e-15)

    def test_mesh_mismatch(self, rng):
        mesh_a = build_mesh(0.0, 1.0, 8, 1, PERIODIC)
        mesh_b = build_mesh(0.0, 1.0, 8, 1, PERIODIC)
        u = smooth_periodic(mesh_a, rng)
        v = smooth_periodic(mesh_b, rng)
        with pytest.raises(MeshMismatchError):
            three_level_ops(u, u, v)

    def test_three_level_product_identity(self, rng):
        # (3a/2 - 2b + c/2)(3a/2 - b + c/2) telescopes into energy terms
        for _ in range(50):
            a, b, c = rng.standard_normal(3)
            lhs = (1.5 * a - 2.0 * b + 0.5 * c) * (1.5 * a - b + 0.5 * c)
            e_ab = 0.25 * (a**2 + (2 * a - b) ** 2 + (a - b) ** 2)
            e_bc = 0.25 * (b**2 + (2 * b - c) ** 2 + (b - c) ** 2)
            z = 0.75 * (a - 2 * b + c) ** 2
            assert lhs == pytest.approx(e_ab - e_bc + z, abs=1e-12)


class TestTimeFilterStep:
    def test_identity_when_history_flat(self, periodic_setup, rng):
        mesh, _ = periodic_setup
        u = smooth_periodic(mesh, rng)
        out = time_filter_step(u, u, u, 2.0 / 3.0)
        assert np.allclose(out.coefficients, u.coefficients, atol=1e-15)

    def test_linear_in_time_data_unchanged(self, periodic_setup):
        mesh, _ = periodic_setup
        c = lambda v: FeFunction(mesh, np.full(mesh.n_dofs, float(v)))
        out = time_filter_step(c(3.0), c(2.0), c(1.0), 2.0 / 3.0)
        assert np.allclose(out.coefficients, 3.0, atol=1e-15)

    def test_unit_kick(self, periodic_setup):
        mesh, _ = periodic_setup
        c = lambda v: FeFunction(mesh, np.full(mesh.n_dofs, float(v)))
        out = time_filter_step(c(1.0), c(0.0), c(0.0), 2.0 / 3.0)
        assert np.allclose(out.coefficients, 2.0 / 3.0, atol=1e-15)


class TestEnergies:
    def test_zero_states(self, periodic_setup):
        mesh, ops = periodic_setup
        z = FeFunction(mesh, np.zeros(mesh.n_dofs))
        assert energy_e(z, z, ops) == 0.0
        assert energy_z(z, z, z, ops) == 0.0

    def test_equal_states_halve_norm_squared(self, periodic_setup, rng):
        mesh, ops = periodic_setup
        u = smooth_periodic(mesh, rng)
        expected = 0.5 * mass_norm(u, ops) ** 2
        assert energy_e(u, u, ops) == pytest.approx(expected, rel=1e-12)

    def test_curvature_vanishes_on_linear_history(self, periodic_setup, rng):
        # u^n = 2 u^{n-1} - u^{n-2} has zero discrete second difference
        mesh, ops = periodic_setup
        u1, u2 = smooth_periodic(mesh, rng), smooth_periodic(mesh, rng)
        u0 = FeFunction(mesh, 2.0 * u1.coefficients - u2.coefficients)
        assert energy_z(u0, u1, u2, ops) == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative(self, periodic_setup, rng):
        mesh, ops = periodic_setup
        for _ in range(20):
            u = [smooth_periodic(mesh, rng) for _ in range(3)]
            assert energy_e(u[0], u[1], ops) >= 0.0
            assert energy_z(u[0], u[1], u[2], ops) >= 0.0


class TestBeStep:
    def test_constants_are_steady_states(self, periodic_setup):
        mesh, _ = periodic_setup
        params = ModelParams(chi=0.7, delta=np.sqrt(mesh.h), deconv_order=1)
        stepper = Stepper.build(unforced(manufactured()), params, 0.05, mesh)
        state = FeFunction(mesh, np.full(mesh.n_dofs, 0.42))
        out, iters, _ = be_step(stepper, state, 0.05)
        assert np.abs(out.coefficients - 0.42).max() < 1e-12
        assert iters == 0

    def test_mass_norm_monotone_periodic_unforced(self, periodic_setup, rng):
        mesh, ops = periodic_setup
        params = ModelParams(chi=0.5, delta=np.sqrt(mesh.h), deconv_order=1)
        stepper = Stepper.build(unforced(manufactured()), params, 0.01, mesh)
        for _ in range(10):
            state = smooth_periodic(mesh, rng)
            out, _, _ = be_step(stepper, state, 0.01)
            assert mass_norm(out, ops) <= mass_norm(state, ops) * (1 + 1e-12)

    def test_state_on_another_mesh_rejected(self, periodic_setup, rng):
        mesh, _ = periodic_setup
        stepper = Stepper.build(unforced(manufactured()), ModelParams(), 0.01, mesh)
        other = build_mesh(0.0, 1.0, 32, 1, PERIODIC)
        with pytest.raises(MeshMismatchError):
            be_step(stepper, smooth_periodic(other, rng), 0.01)

    def test_stepper_holds_the_run_constants(self):
        mesh = build_mesh(0.0, 1.0, 12, 2, DIRICHLET)
        params = ModelParams(v_f=2.0, rho_m=4.0, chi=0.5, delta=0.2, deconv_order=1)
        stepper = Stepper.build(manufactured(), params, 0.1, mesh)
        ops = stepper.operators
        ctx = build_filter_context(ops, params.delta, params.deconv_order)
        stab = stabilization_matrix(ctx, params.chi)
        assert np.array_equal(stepper.stab, stab)
        assert np.array_equal(
            stepper.linear_part, ops.mass / 0.1 + params.v_f * ops.convection + stab
        )
        assert stepper.nonlinear_coeff == 1.0
        both_ends = dataclasses.replace(manufactured(), constrained_ends=(LEFT, RIGHT))
        rows = Stepper.build(both_ends, params, 0.1, mesh).constrained
        assert rows == ((0, "left"), (mesh.n_dofs - 1, "right"))
        periodic = build_mesh(0.0, 1.0, 12, 2, PERIODIC)
        assert Stepper.build(both_ends, params, 0.1, periodic).constrained == ()

    @pytest.mark.parametrize("gamma", [0.0, 2.0 / 3.0])
    def test_stream_keeps_two_levels(self, gamma):
        mesh = build_mesh(0.0, 1.0, 10, 1, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h), gamma=gamma)
        steps = run_time_filtered(manufactured(), params, TimeGrid(0.1, 5), mesh)
        level_0 = weakref.ref(next(steps)[0])
        next(steps)
        assert level_0() is not None  # rho^{n-2} of the step to level 2
        next(steps)
        assert level_0() is None

    def test_newton_failure_names_step_and_time(self):
        mesh = build_mesh(0.0, 1.0, 10, 1, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h))
        with pytest.raises(NoConvergenceError, match=r"^step 1 to t = 0\.05 failed: no "):
            march(manufactured(), params, TimeGrid(0.05, 3), mesh, newton_max_iter=0)

    def test_time_error_scales_first_order(self):
        # fixed final time, halved step: global error ratio near 2
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 50, 2, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h), deconv_order=1)
        errors = []
        for dt in (0.05, 0.025):
            grid = TimeGrid.to_final_time(dt, 0.5)
            trajectory = march(scenario, params, grid, mesh)
            state, diag = trajectory[-1]
            errors.append(l2_error(state, scenario.exact_solution, diag.t))
        assert 1.7 < errors[0] / errors[1] < 2.3

    def test_dirichlet_rows_exact(self):
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 20, 2, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h), deconv_order=1)
        grid = TimeGrid(0.05, 10)
        for trajectory in (
            march(scenario, params, grid, mesh),
            march(scenario, dataclasses.replace(params, gamma=2.0 / 3.0), grid, mesh),
        ):
            for state, diag in trajectory[1:]:
                assert abs(state.coefficients[0]) <= 1e-12
                assert abs(state.coefficients[-1]) <= 1e-12


class TestRunAlgorithm1:
    def test_zero_steps_returns_projection_only(self):
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 10, 1, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h))
        trajectory = march(scenario, params, TimeGrid(0.1, 0), mesh)
        assert len(trajectory) == 1
        assert np.abs(trajectory[0][0].coefficients).max() < 1e-12

    def test_energy_inequality_periodic_unforced(self, rng):
        mesh = build_mesh(0.0, 1.0, 24, 1, PERIODIC)
        scenario = dataclasses.replace(
            unforced(manufactured()),
            initial_condition=lambda x: np.sin(2 * np.pi * np.asarray(x))
            + 0.3 * np.cos(4 * np.pi * np.asarray(x)),
        )
        params = ModelParams(chi=1.0, delta=np.sqrt(mesh.h), deconv_order=1)
        grid = TimeGrid(0.01, 50)
        trajectory = march(scenario, params, grid, mesh)
        norms = np.array([diag.l2_norm for _, diag in trajectory])
        assert np.all(np.diff(norms) <= 1e-10 * norms[0])
        dissipation = sum(diag.stab_dissipation for _, diag in trajectory[1:])
        lhs = norms[-1] ** 2 + 2.0 * grid.dt * dissipation
        assert lhs <= norms[0] ** 2 * (1 + 1e-9)

    def test_reference_error_coarse_step(self):
        # manufactured problem, first rung of the time-accuracy ladder
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 100, 2, DIRICHLET)
        params = ModelParams(chi=0.0, delta=0.1 * np.sqrt(mesh.h), deconv_order=1)
        steps = run_time_filtered(scenario, params, TimeGrid(0.1, 10), mesh)
        error = run_error_inf(steps, scenario.exact_solution)  # unfiltered: one iterate per level
        assert error == pytest.approx(1.97e-2, rel=0.25)


class TestRunAlgorithm2:
    def test_reference_error_and_rate_filtered(self):
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 100, 2, DIRICHLET)
        params = ModelParams(
            chi=0.0, delta=0.1 * np.sqrt(mesh.h), deconv_order=1, gamma=2.0 / 3.0
        )
        errors = []
        for n_steps in (10, 20):
            grid = TimeGrid(1.0 / n_steps, n_steps)
            errors.append(max(  # over the filtered states only
                l2_error(state, scenario.exact_solution, diag.t)
                for state, diag in march(scenario, params, grid, mesh)
            ))
        assert errors[1] == pytest.approx(1.26e-3, rel=0.25)
        assert np.log2(errors[0] / errors[1]) == pytest.approx(1.95, abs=0.15)

    def test_records_intermediate_states(self):
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 10, 1, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h), gamma=2.0 / 3.0)
        grid = TimeGrid(0.1, 5)
        filtered = sum(
            rho_hat is not rho for rho, _, rho_hat in run_time_filtered(scenario, params, grid, mesh)
        )
        assert filtered == grid.n_steps - 1  # none for startup

    def test_one_step_equivalent_scheme_residual(self):
        # substituting the two-step solution into the combined scheme's
        # variational residual must land within the solver tolerance
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 40, 2, DIRICHLET)
        ops = assemble(mesh)
        params = ModelParams(
            chi=1.0, delta=0.1 * np.sqrt(mesh.h), deconv_order=1, gamma=2.0 / 3.0
        )
        ctx = build_filter_context(ops, params.delta, params.deconv_order)
        grid = TimeGrid(0.02, 25)
        newton_tol = 1e-10
        trajectory = march(scenario, params, grid, mesh, newton_tol=newton_tol)
        stab = stabilization_matrix(ctx, params.chi)
        for n in range(2, grid.n_steps + 1):
            state_n = trajectory[n][0]
            state_n1 = trajectory[n - 1][0]
            state_n2 = trajectory[n - 2][0]
            d, i = three_level_ops(state_n, state_n1, state_n2)
            residual = (
                (ops.mass @ d.coefficients) / grid.dt
                + params.v_f * (ops.convection @ i.coefficients)
                - (2.0 * params.v_f / params.rho_m) * b_residual(i)
                + stab @ i.coefficients
                - forcing_vector(scenario.forcing, n * grid.dt, mesh)
            )
            scale = trajectory[n][1].residual_scale
            # interior rows only: constrained rows were replaced by identity
            assert np.abs(residual[1:-1]).max() <= 10.0 * newton_tol * scale

    def test_lemma7_boundedness_and_energy_monotonicity(self, rng):
        mesh = build_mesh(0.0, 1.0, 24, 1, PERIODIC)
        scenario = dataclasses.replace(
            unforced(manufactured()),
            initial_condition=lambda x: 0.5 * np.sin(2 * np.pi * np.asarray(x)),
        )
        params = ModelParams(
            chi=0.5, delta=np.sqrt(mesh.h), deconv_order=0, gamma=2.0 / 3.0
        )
        grid = TimeGrid(0.01, 60)
        trajectory = march(scenario, params, grid, mesh)
        norms = [diag.l2_norm for _, diag in trajectory]
        bound = 10.0 * (norms[0] + norms[1])
        assert max(norms) <= bound
        energies = [diag.energy_e for _, diag in trajectory[1:]]
        assert all(e_next <= e_prev * (1 + 1e-10) for e_prev, e_next in zip(energies, energies[1:]))
