"""Time integration of the stabilized semi-discrete density equation.

Two schemes are provided.  The first is backward Euler: at each step
find rho^n solving

    (1/dt)(rho^n - rho^{n-1}, v) + v_f (rho^n_x, v)
        - (2 v_f / rho_m) b(rho^n, rho^n, v)
        + chi delta^2 ((rho^n)*_x, v*_x) = (f^n, v)   for all v,

a nonlinear system handled by full Newton with the analytic Jacobian and
initial guess rho^{n-1}.  The second scheme post-processes each backward
Euler step with the time filter

    rho^n = rhohat^n - (gamma/2)(rhohat^n - 2 rho^{n-1} + rho^{n-2}),

which at gamma = 2/3 lifts the temporal accuracy from first to second
order.  With gamma = 2/3 the pair is algebraically equivalent to a
one-step scheme in the three-level combinations

    I[u^n] = (3/2) u^n - u^{n-1} + (1/2) u^{n-2}   (interpolation)
    D[u^n] = (3/2) u^n - 2 u^{n-1} + (1/2) u^{n-2} (difference),

since step 1's unknown rhohat^n equals I[rho^n].  The solver never forms
D or I; the test suite builds them to check that equivalence.  The
energy functional E and the curvature functional Z below are the
quantities that make the filtered scheme's dissipation balance explicit.

Both schemes march in one loop, ``run_time_filtered``, a generator of
the time levels that keeps only the two states the recurrence reads:
backward Euler is its gamma = 0 case, where the filter correction
vanishes.  A ``Stepper`` holds what a run keeps constant (the operators,
the stabilization, the linear part M/dt + v_f C + stab, the constrained
rows); ``be_step`` adds the per-step work: the right-hand side, the
boundary values and Newton.

Dirichlet data is enforced by row replacement: constrained residual rows
become rho_i - g(x_i, t^n) and the matching Jacobian rows become identity
rows, so the same dense solve serves both boundary kinds.  Forcing is
evaluated implicitly at the new time level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .filtering import build_filter_context, stabilization_matrix
from .mesh import FeFunction, Mesh1D, MeshMismatchError, l2_project, require_same_mesh
from .linalg import lu_solve
from .operators import (
    AssembledOperators,
    assemble,
    b_jacobian,
    b_residual,
    forcing_vector,
)
from .scenarios import LEFT, Scenario


class NoConvergenceError(RuntimeError):
    """Newton iteration failed to reach its tolerance."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and stabilization parameters of one run."""

    v_f: float = 1.0
    rho_m: float = 1.0
    chi: float = 0.0
    delta: float = 0.0
    deconv_order: int = 0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not (self.v_f > 0 and self.rho_m > 0):
            raise ValueError("v_f and rho_m must be positive")
        if not (self.chi >= 0 and self.delta >= 0 and self.deconv_order >= 0):
            raise ValueError("chi, delta, and deconvolution order must be nonnegative")
        if not np.isfinite(self.delta * self.delta):  # the stabilization's delta^2
            raise ValueError(f"delta^2 overflows for delta = {self.delta:g}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t^n = n dt, n = 0..n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")

    @classmethod
    def to_final_time(cls, dt: float, t_final: float) -> "TimeGrid":
        """Grid ending at t_final, which must be a whole number of steps."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        n = round(t_final / dt)
        if n < 0 or abs(n * dt - t_final) > 1e-9 * abs(t_final):
            raise ValueError(
                f"t_final = {t_final:g} is not a whole number of steps of dt = {dt:g}"
            )
        return cls(dt=dt, n_steps=n)


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record: norms, energies, and solver effort."""

    n: int
    t: float
    l2_norm: float
    energy_e: float
    zeta_z: float
    newton_iters: int
    stab_dissipation: float
    residual_scale: float = 1.0


StepRecord = tuple[FeFunction, StepDiagnostics, FeFunction]  # rho^n, diag, rhohat^n

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    guess: np.ndarray,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple[np.ndarray, int, float]:
    """Full Newton iteration; returns (solution, iterations, ||residual(guess)||).

    Stops once ||residual(x)|| <= tol * max(1, ||residual(guess)||); a
    guess that already satisfies this returns with zero iterations.  A
    non-finite residual norm, at the guess or after any update, raises
    NoConvergenceError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    x = np.asarray(guess, dtype=float).copy()
    r = residual(x)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite norms raise below
        norm = r0 = float(np.linalg.norm(r))
    threshold = tol * max(1.0, r0)
    iters = 0
    while norm > threshold or not np.isfinite(norm):
        if not np.isfinite(norm):
            raise NoConvergenceError(
                f"non-finite Newton residual ({norm}) after {iters} iterations"
            )
        if iters >= max_iter:
            raise NoConvergenceError(
                f"no convergence after {max_iter} Newton iterations "
                f"(residual {norm:.3e})"
            )
        x += lu_solve(jacobian(x), -r)
        iters += 1
        r = residual(x)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(np.linalg.norm(r))
    return x, iters, r0


@dataclass(frozen=True, eq=False)
class Stepper:
    """Everything constant over one run: built once, read by every step."""

    scenario: Scenario
    operators: AssembledOperators
    stab: np.ndarray  # chi delta^2 Pi^T S Pi
    linear_part: np.ndarray  # M/dt + v_f C + stab
    constrained: tuple[tuple[int, str], ...]  # Dirichlet (row, end) pairs
    nonlinear_coeff: float  # 2 v_f / rho_m
    dt: float
    newton_tol: float
    newton_max_iter: int

    @classmethod
    def build(
        cls, scenario: Scenario, params: ModelParams, dt: float, mesh: Mesh1D,
        newton_tol: float = NEWTON_TOL, newton_max_iter: int = NEWTON_MAX_ITER,
    ) -> "Stepper":
        ops = assemble(mesh)
        ctx = build_filter_context(ops, params.delta, params.deconv_order)
        stab = stabilization_matrix(ctx, params.chi)
        ends = scenario.constrained_ends if mesh.boundary_kind == "dirichlet" else ()
        return cls(
            scenario=scenario, operators=ops, stab=stab,
            linear_part=ops.mass / dt + params.v_f * ops.convection + stab,
            constrained=tuple((0 if e == LEFT else mesh.n_dofs - 1, e) for e in ends),
            nonlinear_coeff=2.0 * params.v_f / params.rho_m, dt=dt,
            newton_tol=newton_tol, newton_max_iter=newton_max_iter,
        )


def be_step(
    stepper: Stepper, rho_prev: FeFunction, t_next: float
) -> tuple[FeFunction, int, float]:
    """One implicit step from rho_prev to t_next.

    Returns the new state, its Newton iterations and ||residual(rho_prev)||.
    """
    mesh, scenario = stepper.operators.mesh, stepper.scenario
    if rho_prev.mesh is not mesh:
        raise MeshMismatchError("state does not live on the assembled mesh")
    linear_part, nonlinear_coeff = stepper.linear_part, stepper.nonlinear_coeff
    rhs = (stepper.operators.mass @ rho_prev.coefficients) / stepper.dt
    if scenario.forcing is not None:
        rhs = rhs + forcing_vector(scenario.forcing, t_next, mesh)
    bcs = [(i, scenario.boundary_data(end, t_next)) for i, end in stepper.constrained]

    def residual(x: np.ndarray) -> np.ndarray:
        r = linear_part @ x - nonlinear_coeff * b_residual(FeFunction(mesh, x)) - rhs
        for i, value in bcs:
            r[i] = x[i] - value
        return r

    def jacobian(x: np.ndarray) -> np.ndarray:
        jac = linear_part - nonlinear_coeff * b_jacobian(FeFunction(mesh, x))
        for i, _ in bcs:
            jac[i, :] = 0.0
            jac[i, i] = 1.0
        return jac

    coeffs, iters, r0 = newton_solve(residual, jacobian, rho_prev.coefficients,
                                     stepper.newton_tol, stepper.newton_max_iter)
    return FeFunction(mesh, coeffs), iters, r0


def time_filter_step(
    rho_hat: FeFunction, rho_n1: FeFunction, rho_n2: FeFunction, gamma: float
) -> FeFunction:
    """Post-step correction rhohat - (gamma/2)(rhohat - 2 rho_n1 + rho_n2)."""
    mesh = require_same_mesh(rho_hat, rho_n1, rho_n2)
    second_diff = rho_hat.coefficients - 2.0 * rho_n1.coefficients + rho_n2.coefficients
    return FeFunction(mesh, rho_hat.coefficients - 0.5 * gamma * second_diff)


def mass_norm(u: FeFunction, operators: AssembledOperators) -> float:
    """Discrete L2 norm sqrt(c^T M c)."""
    c = u.coefficients
    return float(np.sqrt(max(c @ (operators.mass @ c), 0.0)))


def energy_e(u_n: FeFunction, u_n1: FeFunction, operators: AssembledOperators) -> float:
    """E[u^n] = (1/4)(||u^n||^2 + ||2u^n - u^{n-1}||^2 + ||u^n - u^{n-1}||^2)."""
    require_same_mesh(u_n, u_n1)
    m = operators.mass
    a, b = u_n.coefficients, u_n1.coefficients
    terms = (a, 2.0 * a - b, a - b)
    return 0.25 * float(sum(v @ (m @ v) for v in terms))


def energy_z(
    u_n: FeFunction, u_n1: FeFunction, u_n2: FeFunction, operators: AssembledOperators
) -> float:
    """Z[u^n] = (3/4)||u^n - 2u^{n-1} + u^{n-2}||^2 (discrete second difference).

    This is the curvature term appearing in the algebraic identity
    (D[u], I[u]) = E[u^n] - E[u^{n-1}] + Z[u^n].
    """
    require_same_mesh(u_n, u_n1, u_n2)
    d = u_n.coefficients - 2.0 * u_n1.coefficients + u_n2.coefficients
    return 0.75 * float(d @ (operators.mass @ d))


def run_time_filtered(
    scenario: Scenario, params: ModelParams, grid: TimeGrid, mesh: Mesh1D,
    newton_tol: float = NEWTON_TOL, newton_max_iter: int = NEWTON_MAX_ITER,
) -> Iterator[StepRecord]:
    """Backward Euler plus time filter; startup step is plain backward Euler.

    Yields one StepRecord per level n = 0..n_steps as soon as it is
    computed.  rhohat^n is rho^n itself where no filter applies: level 0,
    the startup step, and gamma = 0, where the correction vanishes and this
    one loop marches plain backward Euler.  Level 0 is the projected
    initial condition, recorded like a step that took no Newton iterations.
    """
    stepper = Stepper.build(scenario, params, grid.dt, mesh, newton_tol, newton_max_iter)
    ops = stepper.operators
    # rho^{n-1} and rho^{n-2}; level 0 is its own predecessor
    rho_n1, rho_n2 = l2_project(scenario.initial_condition, mesh), None
    for n in range(grid.n_steps + 1):
        t = n * grid.dt
        try:
            rho_hat, iters, r0 = be_step(stepper, rho_n1, t) if n else (rho_n1, 0, 0.0)
        except NoConvergenceError as err:
            raise NoConvergenceError(f"step {n} to t = {t:.6g} failed: {err}") from err
        rho = rho_hat
        if rho_n2 is not None and params.gamma != 0.0:
            rho = time_filter_step(rho_hat, rho_n1, rho_n2, params.gamma)
        # Diagnostics describe the accepted state; the dissipation of the
        # step is the one exerted on rhohat = I[rho^n] in step 1.
        c = rho_hat.coefficients
        diag = StepDiagnostics(
            n=n, t=t, l2_norm=mass_norm(rho, ops), energy_e=energy_e(rho, rho_n1, ops),
            zeta_z=0.0 if rho_n2 is None else energy_z(rho, rho_n1, rho_n2, ops),
            newton_iters=iters, stab_dissipation=float(c @ (stepper.stab @ c)),
            residual_scale=max(1.0, r0),
        )
        rho_n1, rho_n2 = rho, (rho_n1 if n else None)
        yield rho, diag, rho_hat
