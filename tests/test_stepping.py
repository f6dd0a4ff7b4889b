import dataclasses
import weakref
from pathlib import Path

import numpy as np
import pytest

from lwrfem import filtering, linalg, stepping
from lwrfem.analysis import run_error_inf
from lwrfem.cli import parse_config
from lwrfem.filtering import build_filter_context, stabilization_matrix
from lwrfem.linalg import SingularMatrixError, band_matvec, lu_solve
from lwrfem.mesh import DIRICHLET, PERIODIC, build_mesh
from lwrfem.operators import assemble, b_jacobian, b_residual, forcing_vector, mass_matrix
from lwrfem.scenarios import LEFT, RIGHT, manufactured, rarefaction, shock
from lwrfem.stepping import (
    ModelParams,
    NoConvergenceError,
    Stepper,
    TimeGrid,
    be_step,
    energy_z,
    newton_solve,
    run_time_filtered,
    time_filter_step,
)
from conftest import (
    ExtendedBase, applied_base, band, dense, dof_x, energy, l2_error, march, norm,
    operator_matrix, smooth_periodic, three_level_ops,
)


@pytest.fixture(scope="module")
def periodic_setup():
    mesh = build_mesh(0.0, 1.0, 32, 1, PERIODIC)
    ops = assemble(mesh)
    return mesh, ops


def unforced(scenario):
    return dataclasses.replace(scenario, forcing=None)


def step_from(stepper, mesh, c, t_next):
    """be_step from the coefficients c on mesh, started there, with M c and K c formed once."""
    mass_prev = band_matvec(mass_matrix(mesh), c)
    stab_c = None if stepper.stab is None else stepper.stab(c)
    return be_step(stepper, c, mass_prev, t_next, c, stab_c)


def time_rates_rung(chi, dt_max=0.1):
    """(scenario, params, grid, mesh) of the coarsest rung of configs/time_rates.cfg.

    dt_max = 0.1 is the file's own; a larger one gives a rung that the
    ladder does not run.
    """
    config = parse_config(Path(__file__).resolve().parents[1] / "configs" / "time_rates.cfg",
                          {"chi": str(chi), "dt_max": str(dt_max)})
    mesh = config.make_mesh()
    grid = TimeGrid.to_final_time(config.dt_max, config.t_final)
    return config.get_scenario(), config.make_params(mesh.h), grid, mesh


def dense_solve(jacobian):
    """Newton solve callback from a dense Jacobian, taken at x when refactor is set: -J^{-1} r."""
    kept = []

    def solve(x, r, refactor):
        if refactor:
            kept[:] = [jacobian(x)]
        return np.linalg.solve(kept[0], -r)

    return solve


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
        for v_f, rho_m in ((1e308, 1.0), (1.0, 1e-310)):  # 2 v_f / rho_m overflows
            with pytest.raises(ValueError, match="2 v_f / rho_m overflows"):
                ModelParams(v_f=v_f, rho_m=rho_m)
        ModelParams(v_f=1e307, rho_m=1.0)  # large but finite
        ModelParams(gamma=0.0)  # boundary value allowed

    def test_deconvolution_order_has_a_maximum(self):
        ModelParams(deconv_order=stepping.MAX_DECONV_ORDER)
        with pytest.raises(ValueError, match=f"at most {stepping.MAX_DECONV_ORDER}, got"):
            ModelParams(deconv_order=stepping.MAX_DECONV_ORDER + 1)

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
        # a step count too large for a float is an error, not an OverflowError
        for dt, t_final in ((1e-320, 1e-4), (1e-4, 1e305)):
            with pytest.raises(ValueError, match="t_final / dt overflows"):
                TimeGrid.to_final_time(dt, t_final)
        # a step whose M/dt overflows is an error, not a NaN residual
        for make in (lambda: TimeGrid(dt=1e-315, n_steps=4),
                     lambda: TimeGrid.to_final_time(1e-315, 3.999999994e-315)):
            with pytest.raises(ValueError, match="1 / dt overflows"):
                make()


class TestNewtonSolve:
    def test_linear_system_one_iteration(self, rng):
        a = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
        b = rng.standard_normal(6)
        x, iters = newton_solve(lambda x: a @ x - b, dense_solve(lambda x: a), np.zeros(6), 1.0)
        assert iters == 1
        assert np.linalg.norm(a @ x - b) < 1e-9

    def test_root_guess_zero_iterations(self):
        x, iters = newton_solve(
            lambda x: x**2 - 4.0, dense_solve(lambda x: np.diag(2.0 * x)), np.array([2.0]), 1.0
        )
        assert iters == 0
        assert x[0] == 2.0

    def test_scalar_quadratic(self):
        x, iters = newton_solve(
            lambda x: x**2 - 4.0, dense_solve(lambda x: np.diag(2.0 * x)), np.array([3.0]), 1.0
        )
        assert iters <= 6
        assert abs(x[0] - 2.0) < 1e-10

    def test_no_convergence_raises(self):
        # gradient pushes the iterate away from the (complex) roots
        with pytest.raises(NoConvergenceError):
            newton_solve(
                lambda x: x**2 + 1.0,
                dense_solve(lambda x: np.diag(2.0 * x)),
                np.array([0.5]),
                1.0,
                max_iter=5,
            )

    @pytest.mark.parametrize(
        "residual",
        [
            lambda x: np.full_like(x, np.nan),  # non-finite at the guess
            lambda x: np.log(x),  # finite at the guess, NaN after the update
            lambda x: np.full_like(x, np.inf),
        ],
    )
    def test_non_finite_residual_raises(self, residual):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NoConvergenceError, match="non-finite"):
                newton_solve(residual, dense_solve(lambda x: np.diag(1.0 / x)),
                             np.array([0.1, 5.0]), 1.0)

    @pytest.mark.parametrize("root,scale", [(1e-170, 1e-200), (1e200, 1e200)])
    def test_norms_neither_underflow_nor_overflow(self, root, scale):
        # a norm that squares first reads the residual 1e-170 as 0 and 1e200
        # as inf: the first would return the guess unsolved, the second fail
        # as non-finite
        x, iters = newton_solve(lambda x: x - root, lambda x, r, refactor: -r, np.zeros(1), scale)
        assert iters == 1 and x[0] == root

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0])
    def test_tolerance_outside_unit_interval_rejected(self, tol):
        # tol is a fraction of the scale: at tol >= 1, ||r|| <= tol * scale
        # would accept a residual as large as the scale itself
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            newton_solve(lambda x: x - 1.0, dense_solve(lambda x: np.eye(1)), np.zeros(1), 1.0,
                         tol=tol)

    @pytest.mark.parametrize("scale", [-1.0, float("nan")])
    def test_scale_must_be_nonnegative(self, scale):
        with pytest.raises(ValueError, match="scale must be nonnegative"):
            newton_solve(lambda x: x - 1.0, dense_solve(lambda x: np.eye(1)), np.zeros(1), scale)

    def test_zero_scale_asks_for_an_exact_root(self):
        assert newton_solve(lambda x: x, lambda x, r, refactor: -r, np.zeros(1), 0.0)[1] == 0
        assert newton_solve(lambda x: x - 0.5, lambda x, r, refactor: -r, np.zeros(1), 0.0)[1] == 1
        with pytest.raises(NoConvergenceError):  # halving the gap never closes it
            newton_solve(lambda x: x - 0.5, lambda x, r, refactor: -0.25 * r, np.zeros(1), 0.0)

    def test_a_correction_at_rounding_level_ends_the_iteration(self):
        # a residual whose evaluation carries noise of 1e-4, as one holding
        # a term of size 1e12 does, never meets the threshold 1e-10; once a
        # correction is at rounding level the iterate is accepted
        evaluations = []

        def residual(x):
            evaluations.append(x)
            return 1e12 * (x - 0.5) + 1e-4 * (-1) ** len(evaluations)

        x, iters = newton_solve(residual, lambda x, r, refactor: -r / 1e12, np.zeros(1), 1.0)
        assert iters == 2 and abs(x[0] - 0.5) <= 1e-15
        # a correction that stays large never ends it
        with pytest.raises(NoConvergenceError):
            newton_solve(lambda x: np.ones(1), lambda x, r, refactor: -r, np.zeros(1), 1.0,
                         max_iter=5)

    def test_threshold_is_tol_times_scale_whatever_the_guess(self):
        # x - 1 = 0 with a step that closes only half the gap: the residual
        # halves per iteration, so the count shows where the test stopped
        def run(guess, scale):
            return newton_solve(lambda x: x - 1.0, lambda x, r, refactor: -0.5 * r,
                                np.array([guess]), scale, tol=1e-3)[1]

        assert run(2.0, 1.0) == 10  # 2^-10 <= 1e-3 < 2^-9
        assert run(1.0 + 2.0**-9, 1.0) == 1  # a better guess saves iterations only
        assert run(2.0, 1e3) == 0  # the guess's residual 1 is within 1e-3 * 1e3
        assert run(1e3, 1.0) == 20  # a worse guess does not loosen the test

    def test_factor_is_kept_while_the_last_contraction_predicts_the_threshold(self):
        # x - 1 = 0 with a solve that closes half the gap, from x = 2: before
        # iteration k the last two residuals 2^-(k-1) and 2^-(k-2) predict
        # 2^-k after one more solve with the kept factor, within tol = 1e-3
        # from k = 10 on: nine factorizations, the first at the guess, then
        # one re-solve that meets the threshold
        flags, points = [], []

        def solve(x, r, refactor):
            flags.append(refactor)
            if refactor:
                points.append(x[0])
            return -0.5 * r

        x, iters = newton_solve(lambda x: x - 1.0, solve, np.array([2.0]), 1.0, tol=1e-3)
        assert iters == 10 and flags == [True] * 9 + [False] and points[0] == 2.0
        assert points == [1.0 + 2.0**-k for k in range(9)]  # each at the current iterate
        # at scale 0 no prediction holds: every iteration factors, exact Newton
        flags.clear()
        exact = dense_solve(lambda x: np.diag(2.0 * x))
        def recorded(x, r, refactor):
            flags.append(refactor)
            return exact(x, r, refactor)

        x, iters = newton_solve(lambda x: x**2 - 4.0, recorded, np.array([3.0]), 0.0)
        assert abs(x[0] - 2.0) <= 1e-15 and flags == [True] * iters and iters >= 4

    def test_reuse_solves_first_with_the_kept_factor(self):
        # the half-gap solve of the test above: with reuse the first
        # iteration re-solves with the kept factor, and every later one
        # follows the same prediction, so the same nine factorizations
        # follow it; reuse=False is the default contract
        for reuse, first in ((True, False), (False, True)):
            flags = []

            def solve(x, r, refactor):
                flags.append(refactor)
                return -0.5 * r

            x, iters = newton_solve(lambda x: x - 1.0, solve, np.array([2.0]), 1.0, tol=1e-3,
                                    reuse=reuse)
            assert iters == 10 and flags == [first] + [True] * 8 + [False]
        # a kept factor that solves exactly finishes without a factorization
        flags.clear()
        x, iters = newton_solve(lambda x: x - 0.5, lambda x, r, refactor: flags.append(refactor)
                                or -r, np.zeros(1), 1.0, reuse=True)
        assert iters == 1 and flags == [False] and x[0] == 0.5

    @pytest.mark.parametrize("root,scale", [(0.5, 1.0), (1e-160, 1e-200), (1e-160, 0.0)])
    def test_the_first_iteration_always_factors(self, root, scale):
        # the prediction r^2 / r_prev <= tol * scale has no r_prev before the
        # first correction, whatever the sizes (here r^2 = 1e-320, a
        # subnormal): a first iteration that did not factor would solve with
        # a factor left by another call
        flags = []

        def solve(x, r, refactor):
            flags.append(refactor)
            return -r

        x, iters = newton_solve(lambda x: x - root, solve, np.zeros(1), scale)
        assert iters == 1 and flags == [True] and x[0] == root

    def test_negative_max_iter_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            newton_solve(lambda x: x, dense_solve(lambda x: np.eye(1)), np.ones(1), 1.0,
                         max_iter=-1)
        # zero iterations stay legal: a guess that is no root fails to converge
        with pytest.raises(NoConvergenceError):
            newton_solve(lambda x: x, dense_solve(lambda x: np.eye(1)), np.ones(1), 1.0,
                         max_iter=0)

    def test_singular_jacobian_propagates(self):
        with pytest.raises(SingularMatrixError):
            newton_solve(
                lambda x: np.array([x[0] + x[1] - 1.0, 2.0 * (x[0] + x[1]) - 2.0]),
                lambda x, r, refactor: lu_solve(band(np.array([[1.0, 1.0], [2.0, 2.0]]), 1, 1),
                                             -r, 1, 1),
                np.zeros(2),
                1.0,
            )


class TestThreeLevelOps:
    def test_equal_arguments(self, periodic_setup, rng):
        mesh, _ = periodic_setup
        u = smooth_periodic(mesh, rng)
        d, i = three_level_ops(u, u, u)
        assert np.allclose(i, u, atol=1e-15)
        assert np.abs(d).max() < 1e-15

    def test_constant_arithmetic(self, periodic_setup):
        mesh, _ = periodic_setup
        c3, c2, c1 = (np.full(mesh.n_dofs, value) for value in (3.0, 2.0, 1.0))
        d, i = three_level_ops(c3, c2, c1)
        assert np.allclose(i, 3.0, atol=1e-15)
        assert np.allclose(d, 1.0, atol=1e-15)

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
        assert np.allclose(out, u, atol=1e-15)

    def test_linear_in_time_data_unchanged(self, periodic_setup):
        mesh, _ = periodic_setup
        c = lambda v: np.full(mesh.n_dofs, float(v))
        out = time_filter_step(c(3.0), c(2.0), c(1.0), 2.0 / 3.0)
        assert np.allclose(out, 3.0, atol=1e-15)

    def test_unit_kick(self, periodic_setup):
        mesh, _ = periodic_setup
        c = lambda v: np.full(mesh.n_dofs, float(v))
        out = time_filter_step(c(1.0), c(0.0), c(0.0), 2.0 / 3.0)
        assert np.allclose(out, 2.0 / 3.0, atol=1e-15)


class TestEnergies:
    def test_zero_states(self, periodic_setup):
        mesh, ops = periodic_setup
        z = np.zeros(mesh.n_dofs)
        assert energy(z, z, ops) == 0.0
        assert energy_z(z, z, z, ops.mass) == 0.0

    def test_equal_states_halve_norm_squared(self, periodic_setup, rng):
        mesh, ops = periodic_setup
        u = smooth_periodic(mesh, rng)
        expected = 0.5 * norm(u, ops) ** 2
        assert energy(u, u, ops) == pytest.approx(expected, rel=1e-12)

    def test_curvature_vanishes_on_linear_history(self, periodic_setup, rng):
        # u^n = 2 u^{n-1} - u^{n-2} has zero discrete second difference
        mesh, ops = periodic_setup
        u1, u2 = smooth_periodic(mesh, rng), smooth_periodic(mesh, rng)
        u0 = 2.0 * u1 - u2
        assert energy_z(u0, u1, u2, ops.mass) == pytest.approx(
            0.0, abs=1e-14)

    def test_nonnegative(self, periodic_setup, rng):
        mesh, ops = periodic_setup
        for _ in range(20):
            u = [smooth_periodic(mesh, rng) for _ in range(3)]
            assert energy(u[0], u[1], ops) >= 0.0
            assert energy_z(*u, ops.mass) >= 0.0


class TestBeStep:
    def test_constants_are_steady_states(self, periodic_setup):
        mesh, _ = periodic_setup
        params = ModelParams(chi=0.7, delta=np.sqrt(mesh.h), deconv_order=1)
        stepper = Stepper.build(unforced(manufactured()), params, 0.05, mesh)
        out, iters, *_ = step_from(stepper, mesh, np.full(mesh.n_dofs, 0.42), 0.05)
        assert np.abs(out - 0.42).max() < 1e-12
        assert iters == 0

    def test_mass_norm_monotone_periodic_unforced(self, periodic_setup, rng):
        mesh, ops = periodic_setup
        params = ModelParams(chi=0.5, delta=np.sqrt(mesh.h), deconv_order=1)
        stepper = Stepper.build(unforced(manufactured()), params, 0.01, mesh)
        for _ in range(10):
            state = smooth_periodic(mesh, rng)
            out, *_ = step_from(stepper, mesh, state, 0.01)
            assert norm(out, ops) <= norm(state, ops) * (1 + 1e-12)

    def test_state_on_another_mesh_rejected(self, periodic_setup, rng):
        mesh, _ = periodic_setup
        stepper = Stepper.build(unforced(manufactured()), ModelParams(), 0.01, mesh)
        other = build_mesh(0.0, 1.0, 32, 2, PERIODIC)
        with pytest.raises(ValueError, match=f"expected {mesh.n_dofs} coefficients, got shape"):
            step_from(stepper, other, smooth_periodic(other, rng), 0.01)

    def test_stepper_holds_the_run_constants(self):
        mesh = build_mesh(0.0, 1.0, 12, 2, DIRICHLET)
        params = ModelParams(v_f=2.0, rho_m=4.0, chi=0.5, delta=0.2, deconv_order=1)
        stepper = Stepper.build(manufactured(), params, 0.1, mesh)
        ops = stepper.operators
        ctx = build_filter_context(ops, params.delta, params.deconv_order)
        stab = stabilization_matrix(ctx, params.chi)
        assert stepper.stab.weight == stab.weight == params.chi * params.delta**2
        assert np.array_equal(applied_base(stepper.stab.ctx), applied_base(ctx))
        assert np.array_equal(
            stepper.linear_part, ops.mass / 0.1 + params.v_f * ops.convection
        )
        assert stepper.nonlinear_coeff == 1.0
        both_ends = dataclasses.replace(manufactured(), dirichlet={LEFT: 0.1, RIGHT: 0.2})
        rows = Stepper.build(both_ends, params, 0.1, mesh).constrained
        assert rows == ((0, 0.1), (mesh.n_dofs - 1, 0.2))
        periodic = build_mesh(0.0, 1.0, 12, 2, PERIODIC)
        assert Stepper.build(both_ends, params, 0.1, periodic).constrained == ()

    @pytest.mark.parametrize("kind", [DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("degree,order", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_banded_newton_matches_dense_newton(self, kind, degree, order):
        # the augmented banded system against Newton on the dense operator
        # M/dt + v_f C + chi delta^2 Pi^T S Pi - c J_b with identity rows,
        # both from the same extrapolated guess with the same stopping scale
        mesh = build_mesh(0.0, 1.0, 10, degree, kind)
        params = ModelParams(chi=0.8, delta=0.15, deconv_order=order)
        scenario = dataclasses.replace(manufactured(), dirichlet={LEFT: 0.3})
        stepper = Stepper.build(scenario, params, 0.01, mesh)
        ops, c = stepper.operators, stepper.nonlinear_coeff
        prev = 0.3 + 0.1 * np.sin(2 * np.pi * dof_x(mesh))
        guess = 2.0 * prev - (0.3 + 0.1 * np.sin(2 * np.pi * dof_x(mesh) - 0.1))
        rows = [i for i, _ in stepper.constrained]
        mass_prev = band_matvec(ops.mass, prev)
        scale = max([np.sqrt(prev @ mass_prev)] + [0.3] * len(rows))
        stab_matrix = operator_matrix(stepper.stab, mesh.n_dofs)
        linear = dense(stepper.linear_part) + stab_matrix
        rhs = mass_prev / 0.01 + forcing_vector(scenario.forcing, 0.01, mesh)

        def residual(x):
            r = linear @ x - c * b_residual(mesh, x) - rhs
            r[rows] = x[rows] - 0.3
            return r

        def jacobian(x):
            jac = linear - c * dense(b_jacobian(mesh, x))
            jac[rows] = np.eye(mesh.n_dofs)[rows]
            return jac

        start = guess.copy()
        start[rows] = 0.3  # be_step starts on the step's Dirichlet values
        expected, expected_iters = newton_solve(residual, dense_solve(jacobian), start, scale)
        state, iters, step_scale, *_ = be_step(stepper, prev, mass_prev, 0.01, guess,
                                               stepper.stab(guess))
        assert step_scale == scale
        assert iters == expected_iters
        assert np.abs(state - expected).max() <= 1e-12

    def test_threshold_does_not_depend_on_the_guess(self):
        mesh = build_mesh(0.0, 1.0, 16, 2, DIRICHLET)
        params = ModelParams(chi=1.0, delta=0.1, deconv_order=1)
        stepper = Stepper.build(manufactured(), params, 0.01, mesh)
        prev = np.sin(np.pi * dof_x(mesh)) ** 4 * np.sin(0.5)
        near = prev + 1e-3 * np.sin(3 * np.pi * dof_x(mesh))
        mass_prev = band_matvec(stepper.operators.mass, prev)
        results = [be_step(stepper, prev, mass_prev, 0.51, guess, stepper.stab(guess))
                   for guess in (prev, near)]
        (state_a, _, scale_a, *_), (state_b, _, scale_b, *_) = results
        # the L2 norm of rho^{n-1}; the boundary values are 0
        assert scale_a == scale_b == norm(prev, stepper.operators)
        # both meet ||r|| <= 1e-10 scale, so they agree far below the step's change
        change = np.abs(state_a - prev).max()
        assert np.abs(state_a - state_b).max() <= 1e-9 * change

    def test_zero_data_converges(self):
        # on zero data with zero boundary values the scale is 0: a forced
        # step from zero stops once its correction is at rounding level,
        # and zero data without forcing is a steady state at once
        mesh = build_mesh(0.0, 1.0, 50, 2, DIRICHLET)
        params = ModelParams(chi=1.0, delta=0.1 * np.sqrt(mesh.h), deconv_order=1)
        zero = np.zeros(mesh.n_dofs)
        for scenario, most in ((manufactured(), 3), (unforced(manufactured()), 0)):
            stepper = Stepper.build(scenario, params, 1e-4, mesh)
            state, iters, scale, *_ = step_from(stepper, mesh, zero, 1e-4)
            assert scale == 0.0
            assert iters <= most
        assert not state.any()
        # inflow data into an empty strand: the boundary value is the scale
        stepper = Stepper.build(rarefaction(), params, 1e-4, mesh)
        state, iters, scale, *_ = step_from(stepper, mesh, zero, 1e-4)
        assert scale == 0.47 and iters <= 3 and state[0] == 0.47

    @pytest.mark.parametrize("chi", [0.0, 1.0])
    def test_every_step_factors_at_least_once(self, chi, monkeypatch):
        # on the time ladder's coarsest rung each step that iterates
        # factors (through stepping.lu_solve, once per factorization): the
        # steps that start from the last step's factor do not finish with
        # it, and factor again once its first correction misses the
        # prediction; the kept factors leave fewer factorizations than
        # iterations
        calls = []
        solve = stepping.lu_solve
        monkeypatch.setattr(stepping, "lu_solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
        factorizations, iterations = [], []
        for _, diag, _ in run_time_filtered(*time_rates_rung(chi)):
            factorizations.append(len(calls))
            iterations.append(diag.newton_iters)
            calls.clear()
        assert all(1 <= f <= i or f == i == 0 for f, i in zip(factorizations, iterations))
        assert sum(iterations[1:]) > 0 and iterations[0] == factorizations[0] == 0
        assert sum(factorizations) < sum(iterations)

    def test_the_rung_where_plain_chord_stalls_converges(self, monkeypatch):
        # on the chi = 1 time ladder rung at dt_max = 0.2 (P2, n = 100,
        # 5 steps) every step converges within 7 iterations (exact Newton
        # takes 0, 6, 3, 4, 6, 7)
        rung = time_rates_rung(1.0, 0.2)
        assert max(diag.newton_iters for _, diag in march(*rung)) <= 7
        # plain chord, the start iterate's factor kept for the whole step,
        # stalls on it at step 1
        newton = stepping.newton_solve

        def plain_chord(residual, solve, *args):
            calls = []

            def factor_once(x, r, refactor):  # refactor on the first call only
                calls.append(x)
                return solve(x, r, len(calls) == 1)

            return newton(residual, factor_once, *args)

        monkeypatch.setattr(stepping, "newton_solve", plain_chord)
        with pytest.raises(NoConvergenceError, match="^step 1 .* no convergence after 25 Newton"):
            march(*rung)

    def test_a_step_that_fails_from_the_quadratic_start_runs_again(self, monkeypatch):
        # on the same rung Newton from 3 rho^4 - 3 rho^3 + rho^2 diverges at
        # step 5, with the kept factor; the step runs again as steps 1 and 2
        # run, from 2 rho^4 - rho^3 with a fresh factor, and converges
        attempts = []
        step = stepping.be_step

        def recorded(stepper, c_prev, mass_prev, t_next, guess, stab_guess, reuse=False):
            attempts.append((round(t_next / 0.2), guess, reuse, None))
            try:
                out = step(stepper, c_prev, mass_prev, t_next, guess, stab_guess, reuse)
            except NoConvergenceError as err:
                attempts[-1] = attempts[-1][:3] + (err,)
                raise
            return out

        monkeypatch.setattr(stepping, "be_step", recorded)
        records = march(*time_rates_rung(1.0, 0.2))
        assert [n for n, *_ in attempts] == [1, 2, 3, 4, 5, 5]
        failed = [(n, err) for n, _, _, err in attempts if err is not None]
        assert len(failed) == 1 and failed[0][0] == 5
        assert "no convergence after 25 Newton" in str(failed[0][1])
        c = [state for state, _ in records]
        (_, first, reused, _), (_, second, fresh, _) = attempts[-2:]
        assert np.array_equal(first, 3.0 * (c[4] - c[3]) + c[2]) and reused
        assert np.array_equal(second, 2.0 * c[4] - c[3]) and not fresh
        assert len(records) == 6 and records[-1][1].newton_iters <= 7

    def test_the_kept_factor_serves_the_next_steps(self, monkeypatch):
        # the shock run at its defaults (P1, n = 128, chi = 1, N = 0,
        # dt = 1e-4, 1000 steps): from step 3 on, Newton starts at the
        # quadratic extrapolation, whose residual one correction with the
        # last step's factor brings under the threshold, so most steps
        # factor nothing (53 factorizations; 1002 with a factor per step)
        calls = []
        solve = stepping.lu_solve
        monkeypatch.setattr(stepping, "lu_solve",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        mesh = build_mesh(0.0, 1.0, 128, 1, DIRICHLET)
        params = ModelParams(chi=1.0, delta=np.sqrt(mesh.h))
        records = march(shock(), params, TimeGrid(1e-4, 1000), mesh)
        iterations = sum(diag.newton_iters for _, diag in records)
        assert len(calls) <= 100 and iterations <= 1.15 * 1000

    def test_a_run_without_a_factor_yet_factors_when_it_may_reuse(self):
        # a steady state until the forcing starts after step 2: steps 1 and
        # 2 take no iteration, so step 3 may start from the last step's
        # factor while the Stepper holds none, and it factors instead
        mesh = build_mesh(0.0, 1.0, 16, 2, PERIODIC)
        scenario = dataclasses.replace(
            manufactured(), initial_condition=lambda x: np.full_like(np.asarray(x), 0.42),
            forcing=lambda x, t: (t > 0.025) * np.sin(2 * np.pi * np.asarray(x)))
        params = ModelParams(chi=1.0, delta=0.1, deconv_order=1)
        records = march(scenario, params, TimeGrid(0.01, 4), mesh)
        iterations = [diag.newton_iters for _, diag in records]
        assert iterations[:3] == [0, 0, 0] and min(iterations[3:]) >= 1

    def test_interleaved_runs_do_not_share_a_factor(self):
        # two runs on different meshes and parameters, advanced in turn,
        # each yield what they yield alone: whether a step may start from
        # the last step's factor is state of its own run
        runs = [
            (shock(), ModelParams(chi=1.0, delta=0.1), TimeGrid(1e-3, 30),
             build_mesh(0.0, 1.0, 48, 1, DIRICHLET)),
            (manufactured(), ModelParams(chi=1.0, delta=0.05, deconv_order=1, gamma=2.0 / 3.0),
             TimeGrid(0.02, 30), build_mesh(0.0, 1.0, 20, 2, DIRICHLET)),
        ]
        alone = [list(run_time_filtered(*run)) for run in runs]
        together = [[], []]
        for a, b in zip(*(run_time_filtered(*run) for run in runs)):
            together[0].append(a)
            together[1].append(b)
        for solo, mixed in zip(alone, together):
            assert len(solo) == len(mixed) == 31
            for (c, diag, hat), (c2, diag2, hat2) in zip(solo, mixed):
                assert np.array_equal(c, c2) and np.array_equal(hat, hat2) and diag == diag2

    def test_huge_step_still_meets_a_singular_matrix(self):
        # the periodic P1 Newton matrix M/dt + C is singular at dt = 1e20;
        # a stopping scale holding dt f would accept the zero guess instead
        mesh = build_mesh(0.0, 1.0, 20, 1, PERIODIC)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h), deconv_order=1)
        stepper = Stepper.build(manufactured(), params, 1e20, mesh)
        with pytest.raises(SingularMatrixError):
            step_from(stepper, mesh, np.zeros(mesh.n_dofs), 1e20)

    @pytest.mark.parametrize("chi", [0.0, 1.0])
    def test_no_filter_solves_at_zero_weight(self, chi, monkeypatch):
        # at chi = 0 the stabilization is zero: no pbtrs, and the Newton
        # matrix carries rho alone, one unknown per DOF
        calls = []
        solve = filtering._PBTRS
        monkeypatch.setattr(filtering, "_PBTRS", lambda *a: calls.append(1) or solve(*a))
        mesh = build_mesh(0.0, 1.0, 16, 2, DIRICHLET)
        params = ModelParams(chi=chi, delta=np.sqrt(mesh.h), deconv_order=1)
        stepper = Stepper.build(manufactured(), params, 0.05, mesh)
        records = march(manufactured(), params, TimeGrid(0.05, 3), mesh)
        assert sum(d.newton_iters for _, d in records) > 0
        w = mesh.half_band
        if chi == 0.0:
            assert calls == []
            assert stepper.half_bands == (w, w)
            assert stepper.newton.shape == (2 * w + 1, mesh.n_dofs)
            assert all(d.stab_dissipation == 0.0 for _, d in records)
        else:
            assert calls
            assert stepper.newton.shape[1] == 5 * mesh.n_dofs  # 2N + 3 unknowns

    def test_zero_weight_builds_no_filter_context(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("filter context built at chi = 0")

        monkeypatch.setattr(stepping, "build_filter_context", refuse)
        mesh = build_mesh(0.0, 1.0, 16, 2, DIRICHLET)
        params = ModelParams(chi=0.0, delta=np.sqrt(mesh.h), deconv_order=1)
        assert Stepper.build(manufactured(), params, 0.05, mesh).unknowns == 1
        assert len(march(manufactured(), params, TimeGrid(0.05, 3), mesh)) == 4

    @pytest.mark.parametrize("make,degree,order,gamma,dt", [
        (shock, 1, 0, 0.0, 1e-3), (manufactured, 2, 1, 2.0 / 3.0, 0.01),
    ])
    def test_each_band_product_is_formed_once(self, make, degree, order, gamma, dt,
                                              monkeypatch):
        # K x is carried through Newton, so a step's first residual forms
        # one product (the linear part) and each residual after a
        # correction d two (the linear part and K d = chi delta^2 S y_{2N+2}
        # from d's last filter unknown).  A level forms one chain for K of
        # its state (2N + 2 filter solves and 2N + 3 products) and two more
        # products (M rho^n and Z's product of the second difference), and
        # Stepper.build one chain per constrained row for its column K e_i.
        products, solves, residuals = [], [], []
        gbmv, pbtrs, b_res = linalg._GBMV, filtering._PBTRS, stepping.b_residual
        monkeypatch.setattr(linalg, "_GBMV", lambda *a: products.append(1) or gbmv(*a))
        monkeypatch.setattr(filtering, "_PBTRS", lambda *a: solves.append(1) or pbtrs(*a))
        monkeypatch.setattr(stepping, "b_residual",
                            lambda mesh, c: residuals.append(1) or b_res(mesh, c))
        mesh = build_mesh(0.0, 1.0, 24, degree, DIRICHLET)
        params = ModelParams(chi=1.0, delta=np.sqrt(mesh.h), deconv_order=order, gamma=gamma)
        records = list(run_time_filtered(make(), params, TimeGrid(dt, 20), mesh))
        monkeypatch.undo()
        stepper = Stepper.build(make(), params, dt, mesh)
        chains = len(records) + len(stepper.constrained)
        iterations = sum(d.newton_iters for _, d, _ in records)
        steps = len(records) - 1
        assert iterations > 0 and len(residuals) == steps + iterations
        chain_products = (2 * order + 3) * chains
        assert len(products) <= 2 * iterations + steps + 2 * len(records) + chain_products
        assert len(solves) == (2 * order + 2) * chains
        # the recorded dissipation is the operator's own of the returned state
        stab = stepper.stab
        for _, diag, c in records:
            assert diag.stab_dissipation == c @ stab(c)

    def test_stepped_dissipation_against_extended_precision(self):
        # the forced manufactured problem on a periodic P2 mesh, from the
        # zero state: each recorded c . K c of rhohat against an
        # extended-precision chain (a dissipation read off the K c that
        # Newton carries misses it by 7.8e-10 at step 1)
        mesh = build_mesh(0.0, 1.0, 64, 2, PERIODIC)
        params = ModelParams(chi=1.0, delta=0.0125, deconv_order=2, gamma=2.0 / 3.0)
        extended = ExtendedBase(assemble(mesh), params.delta)
        weight = params.chi * params.delta**2
        records = list(run_time_filtered(manufactured(), params, TimeGrid(0.01, 20), mesh))
        for _, diag, rho_hat in records:
            reference = weight * extended.form(rho_hat, params.deconv_order)
            assert abs(diag.stab_dissipation - reference) <= 1e-10 * abs(reference), diag.n

    @pytest.mark.parametrize("kind", [DIRICHLET, PERIODIC])
    def test_every_band_multiplied_is_fortran_ordered(self, kind, monkeypatch):
        # gbmv's f2py wrapper would copy a C-ordered band on every call
        bands = []
        gbmv = linalg._GBMV
        monkeypatch.setattr(linalg, "_GBMV", lambda *a: bands.append(a[5]) or gbmv(*a))
        mesh = build_mesh(0.0, 1.0, 12, 2, kind)
        params = ModelParams(chi=1.0, delta=0.2, deconv_order=1, gamma=2.0 / 3.0)
        march(manufactured(), params, TimeGrid(0.01, 3), mesh)
        assert bands and all(ab.flags.f_contiguous for ab in bands)

    @pytest.mark.parametrize("gamma", [0.0, 2.0 / 3.0])
    def test_stream_keeps_three_levels(self, gamma):
        mesh = build_mesh(0.0, 1.0, 10, 1, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h), gamma=gamma)
        steps = run_time_filtered(manufactured(), params, TimeGrid(0.1, 5), mesh)
        level_0 = weakref.ref(next(steps)[0])
        next(steps)
        next(steps)
        assert level_0() is not None  # rho^{n-3} of the step to level 3
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
            errors.append(l2_error(mesh, state, scenario.exact_solution, diag.t))
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
                assert abs(state[0]) <= 1e-12
                assert abs(state[-1]) <= 1e-12


class TestRunAlgorithm1:
    def test_zero_steps_returns_projection_only(self):
        scenario = manufactured()
        mesh = build_mesh(0.0, 1.0, 10, 1, DIRICHLET)
        params = ModelParams(delta=0.1 * np.sqrt(mesh.h))
        trajectory = march(scenario, params, TimeGrid(0.1, 0), mesh)
        assert len(trajectory) == 1
        assert np.abs(trajectory[0][0]).max() < 1e-12

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
        error = run_error_inf(mesh, steps, scenario.exact_solution)  # unfiltered: one per level
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
                l2_error(mesh, state, scenario.exact_solution, diag.t)
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
                band_matvec(ops.mass, d) / grid.dt
                + params.v_f * band_matvec(ops.convection, i)
                - (2.0 * params.v_f / params.rho_m) * b_residual(mesh, i)
                + stab(i)
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
