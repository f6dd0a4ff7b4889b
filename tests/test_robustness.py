"""One backward Euler step over a grid of scenarios, meshes and step sizes.

Each case is one ``be_step`` of delta = sqrt(h), N = 1, from the L2
projection of the exact profile at t = 0.3, over scenario x P1/P2 x
n = 16, 128, 1024 x Dirichlet/periodic x chi = 0, 1 x dt = 1e-9 .. 0.1
(432 steps).  The tests check that the steps which converge return a
root of the residual, that Newton with its kept factor lands where exact
Newton does, and that the steps which fail say so.
"""

import itertools

import numpy as np
import pytest

from lwrfem import stepping
from lwrfem.linalg import band_matvec
from lwrfem.mesh import FeFunction, build_mesh
from lwrfem.operators import b_residual, forcing_vector, l2_project
from lwrfem.scenarios import SCENARIOS
from lwrfem.stepping import ModelParams, NoConvergenceError, Stepper, be_step

T0 = 0.3
STEPS = (1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 1e-1)
CASES = list(itertools.product(sorted(SCENARIOS), (1, 2), (16, 128, 1024),
                               ("dirichlet", "periodic"), (0.0, 1.0), STEPS))
# Newton diverges on these periodic rarefaction steps without stabilization
FAILING = {
    ("rarefaction", degree, n, "periodic", 0.0, dt)
    for degree in (1, 2) for n, dt in ((128, 0.1), (1024, 0.01), (1024, 0.1))
}
_EPS = float(np.finfo(float).eps)


def start(case):
    """be_step's arguments (stepper, c^0, M c^0, t_next, c^0, K c^0) of one case.

    c^0 holds the coefficients of rho^0, where Newton starts.
    """
    name, degree, n, kind, chi, dt = case
    scenario = SCENARIOS[name]()
    mesh = build_mesh(0.0, 1.0, n, degree, kind)
    stepper = Stepper.build(scenario, ModelParams(chi=chi, delta=np.sqrt(mesh.h),
                                                  deconv_order=1), dt, mesh)
    c = l2_project(lambda x: scenario.exact_solution(x, T0), mesh).coefficients
    stab_c = None if stepper.stab is None else stepper.stab(c)
    return stepper, c, band_matvec(stepper.operators.mass, c), T0 + dt, c, stab_c


def run_case(case):
    """(coefficients, iterations, scale) of the case's step, or the error it raised."""
    try:
        return be_step(*start(case))[:3]
    except NoConvergenceError as err:
        return err


@pytest.fixture(scope="module")
def scan():
    return {case: run_case(case) for case in CASES}


def converged(scan):
    return {case: out for case, out in scan.items() if not isinstance(out, Exception)}


def test_every_step_converges_but_six_that_say_so(scan):
    done = converged(scan)
    assert {case for case in scan if case not in done} == FAILING
    assert all(isinstance(scan[case], NoConvergenceError) for case in FAILING)
    assert len(done) == 426
    assert sum(iters for _, iters, _ in done.values()) == 1058
    assert max(iters for _, iters, _ in done.values()) == 7


def test_converged_steps_are_roots_to_threshold_or_rounding(scan):
    # r(x) recomputed from the Stepper's parts, outside Newton; a residual
    # above newton_tol * scale must lie at the rounding level of its own
    # evaluation, eps * || |linear part x| + |right-hand side| ||
    for case, (x, _, scale) in converged(scan).items():
        stepper, _, mass_prev, t_next, *_ = start(case)
        mesh = stepper.operators.mesh
        linear = band_matvec(stepper.linear_part, x)
        rhs = mass_prev / stepper.dt
        if stepper.scenario.forcing is not None:
            rhs = rhs + forcing_vector(stepper.scenario.forcing, t_next, mesh)
        r = linear - stepper.nonlinear_coeff * b_residual(FeFunction(mesh, x)) - rhs
        if stepper.stab is not None:
            r += stepper.stab(x)
        for i, g in stepper.constrained:
            r[i] = x[i] - g
        norm = np.linalg.norm(r)
        rounding = _EPS * np.linalg.norm(np.abs(linear) + np.abs(rhs))
        assert norm <= stepper.newton_tol * scale or norm <= rounding, case


def test_kept_factor_agrees_with_exact_newton(scan, monkeypatch):
    # exact Newton: every iteration factors at the current iterate
    newton_solve = stepping.newton_solve

    def exact_newton(residual, solve, guess, scale, tol, max_iter):
        return newton_solve(residual, lambda x, r, refactor: solve(x, r, True), guess, scale,
                            tol, max_iter)

    monkeypatch.setattr(stepping, "newton_solve", exact_newton)
    for case, (c, _, scale) in converged(scan).items():
        stepper, *data = start(case)
        d = c - be_step(stepper, *data)[0]
        distance = np.sqrt(max(d @ band_matvec(stepper.operators.mass, d), 0.0))
        assert distance <= stepper.newton_tol * scale, case
