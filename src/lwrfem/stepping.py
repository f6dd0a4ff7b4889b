"""Time integration of the stabilized semi-discrete density equation.

Two schemes are provided.  The first is backward Euler: at each step
find rho^n solving

    (1/dt)(rho^n - rho^{n-1}, v) + v_f (rho^n_x, v)
        - (2 v_f / rho_m) b(rho^n, rho^n, v)
        + chi delta^2 ((rho^n)*_x, v*_x) = (f^n, v)   for all v,

a nonlinear system handled by Newton with the analytic Jacobian.
Newton starts from the accepted states' quadratic extrapolation
3 rho^{n-1} - 3 rho^{n-2} + rho^{n-3} (from rho^0 on step 1 and the
linear 2 rho^{n-1} - rho^{n-2} on step 2), with the Dirichlet values of
the new time level in place, and stops once the residual is below tol
times the size of the step's data, a threshold that the guess cannot
move (see ``be_step``).  Newton keeps its factor, re-solving with it (a
chord step), for as long as the last contraction of the residual
predicts that one more chord step reaches the threshold; otherwise it
factors again at the current iterate (see ``newton_solve``; Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003, the chord
and Shamanskii methods; Hairer and Wanner, Solving Ordinary Differential
Equations II, IV.8).  The factor outlives its step when that step
contracted strongly (it made at most one correction, or its last one cut
the residual by 1 / KEEP_FACTOR_THETA): the next step's first correction
then solves with it, and from the quadratic start that one correction
mostly finishes the step.  A step that fails from the quadratic start
runs again from the linear one with a fresh factor.  The second scheme
post-processes each backward Euler step with the time filter

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
the time levels that keeps only the three states that the start and the
recurrence read: backward Euler is its gamma = 0 case, where the filter
correction vanishes.  A state is its coefficient vector, of the mesh's n_dofs
entries: the loop, the step, the diagnostics and the records the loop
yields all hold such vectors, and the mesh travels beside them.  A
``Stepper`` holds what a run keeps constant (the operators, the
stabilization, the linear part M/dt + v_f C, the constant part of the
Newton matrix with its (rho, rho) block view, each constrained row with
its Dirichlet value g, its band positions and its column K e_i);
``be_step`` adds the per-step work: the right-hand side, the stopping
scale, the start iterate and Newton.  At chi delta^2 = 0 the run has
no stabilization: no filter context is built, no filter solve is done
and rho is the one unknown.

Each band product is formed once.  The loop forms M rho^n once per
level: it gives the level's L2 norm and energy E, and the next step's
right-hand side M rho^n / dt and stopping scale, which ``be_step`` takes
from its caller.  The filter chain of K (see ``filtering``) runs once per
step, at the state c that Newton returns: ``be_step`` returns K c, from
which the loop forms the step's dissipation c . K c and which it carries
next to M rho^n.
Everywhere else K comes by linearity: the start's from the levels', the
filtered state's from the time filter's combination, and each Newton
iterate's from the last one's plus K d of the correction d, which the
augmented solve already holds (``be_step``).  So the diagnostics add
only Z's product of the second difference.

The stabilization K = chi delta^2 S Pi^2 is a dense matrix, but it is the
product of banded ones (see ``filtering``).  So each Newton step solves
one banded augmented system: every DOF carries rho (unknown 0) and the
filter recurrence's y_1..y_{2N+2}, which ``filtering`` numbers and poses
as blocks (``Stabilization.newton_blocks``; 2N + 3 unknowns, which this
module lays out DOF by DOF).  The rho rows read

    (M/dt + v_f C - (2 v_f / rho_m) J_b) d_rho + chi delta^2 S d_y{2N+2} = -r,

and the y rows are the recurrence with a zero right-hand side.
Eliminating the y gives back the Newton step of the dense operator.
Only the (rho, rho) entries change from one factorization to the next;
a banded LU (LAPACK gbtrf) factors the system in O(n) time, into a
workspace the ``Stepper`` holds, and each solve with it (gbtrs) is O(n)
too.

Dirichlet data is enforced by row replacement: the residual row of the
constrained end's node becomes rho_i - g, with g the end's constant
value, and the matching Newton row an identity row, with its coupling to
y_{2N+2} masked out, so the same banded solve serves both boundary kinds.  Forcing is evaluated
implicitly at the new time level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .filtering import Stabilization, build_filter_context, stabilization_matrix
from .linalg import BandLU, SingularMatrixError, band_matvec, lu_solve, norm2
from .mesh import Mesh1D, check_state
from .operators import (
    AssembledOperators,
    assemble,
    b_jacobian,
    b_residual,
    forcing_vector,
    l2_project,
)
from .scenarios import LEFT, Scenario


class NoConvergenceError(RuntimeError):
    """Newton iteration failed to reach its tolerance."""


# The largest deconvolution order N.  A Newton matrix carries 2N + 3
# unknowns per DOF, and its workspace grows like (2N + 3)^2 (newton_bytes):
# at N = 10, 4.0 MB for P1 on 128 elements and 106 MB for P2 on 1024,
# about 20 times that of N = 1.
MAX_DECONV_ORDER = 10


def newton_bytes(n_dofs: int, half_band: int, deconv_order: int | None) -> int:
    """Bytes of a run's Newton workspace, from the mesh's n_dofs and half band.

    deconv_order is None for a run without stabilization, where rho is the
    one unknown per DOF.  Otherwise each DOF carries 2N + 3 unknowns, and
    the augmented band has kl = (2N + 3) w + 1 and ku = (2N + 3) w + 2N + 2
    (``_newton_matrix``).  The workspace is that band, gbtrf's LU storage
    of 2 kl + ku + 1 rows with its 4-byte pivots (``BandLU``), and a step's
    two vectors over all unknowns (the lifted right-hand side and the
    correction).
    """
    if deconv_order is None:
        unknowns, kl, ku = 1, half_band, half_band
    else:
        unknowns = 2 * deconv_order + 3
        kl, ku = unknowns * half_band + 1, unknowns * half_band + unknowns - 1
    return unknowns * n_dofs * (8 * (kl + ku + 1) + 8 * (2 * kl + ku + 1) + 4 + 2 * 8)


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
        if self.deconv_order > MAX_DECONV_ORDER:
            raise ValueError(f"deconvolution order must be at most {MAX_DECONV_ORDER}, "
                             f"got {self.deconv_order}")
        if not np.isfinite(self.delta * self.delta):  # the stabilization's delta^2
            raise ValueError(f"delta^2 overflows for delta = {self.delta:g}")
        if not np.isfinite(self.chi * (self.delta * self.delta)):  # its weight
            raise ValueError(f"chi delta^2 overflows for chi = {self.chi:g}, "
                             f"delta = {self.delta:g}")
        if not np.isfinite(2.0 * self.v_f / self.rho_m):  # the nonlinear coefficient
            raise ValueError(f"2 v_f / rho_m overflows for v_f = {self.v_f:g}, "
                             f"rho_m = {self.rho_m:g}")
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
        if not np.isfinite(1.0 / self.dt):  # M/dt: every entry of M is below 1 on [0, 1]
            raise ValueError(f"1 / dt overflows for dt = {self.dt:g}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")

    @classmethod
    def to_final_time(cls, dt: float, t_final: float) -> "TimeGrid":
        """Grid ending at t_final, which must be a whole number of steps."""
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not np.isfinite(t_final / dt):
            raise ValueError(f"t_final / dt overflows for t_final = {t_final:g}, dt = {dt:g}")
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
    residual_scale: float = 1.0  # the Newton threshold is newton_tol times this


StepRecord = tuple[np.ndarray, StepDiagnostics, np.ndarray]  # rho^n, diag, rhohat^n

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
# A step whose last Newton correction cut the residual by at least
# 1 / KEEP_FACTOR_THETA (or that made at most one correction) lets the
# next step start from its factor.
KEEP_FACTOR_THETA = 1e-4
# A Newton correction below this many machine epsilons of its iterate
# changes nothing that double precision can resolve.
NEWTON_ROUNDING = 10.0
_EPS = float(np.finfo(float).eps)


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    solve: Callable[[np.ndarray, np.ndarray, bool], np.ndarray],
    guess: np.ndarray,
    scale: float,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    reuse: bool = False,
) -> tuple[np.ndarray, int]:
    """Newton iteration, its factor kept while predicted to finish; returns (x, iterations).

    solve(x, r, refactor) is the correction d with J d = -r, where J is
    the Jacobian of residual factored at x when refactor is true and the
    factor kept from the last such call otherwise, which may be a call of
    an earlier newton_solve.  Stops once
    ||residual(x)|| <= tol * scale, a threshold fixed before the first
    iteration: the caller picks scale from the problem, not from the guess,
    so that a better guess saves iterations without loosening the test
    (Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003,
    1.5).  A guess that already meets it returns with zero iterations; at
    scale 0 only an exact root does.  tol is a fraction of scale and must
    lie in (0, 1): at 1 or more the test would accept a residual as large
    as the scale itself.

    Unless reuse is true, the first iteration factors at the guess,
    whatever the norms, so that no factor from an earlier call is used;
    with reuse it solves with the kept factor, which the caller vouches
    for.  Each later iteration re-solves
    with the kept factor, a simplified (chord) Newton step (Kelley, the
    chord and Shamanskii methods), when the last contraction predicts
    that one more such step reaches the threshold: with the last two
    residual norms r_prev and r, when r^2 / r_prev <= tol * scale (Hairer
    and Wanner, Solving Ordinary Differential Equations II, IV.8).
    Otherwise it factors again at the current iterate.  At scale 0 the
    prediction never holds, and every iteration factors: exact Newton.

    It also stops after a correction d with ||d|| <= NEWTON_ROUNDING eps
    ||x||: x is then a root to the precision of its own digits, and the
    residual stands at the rounding level of its evaluation, which can
    lie above tol * scale (a residual holding M/dt at dt = 1e-8 does).
    Every norm is ``norm2``, which neither underflows nor overflows, so a
    residual of 1e-170 counts as nonzero and one of 1e200 as finite; a
    residual holding NaN or inf, at the guess or after any update, raises
    NoConvergenceError.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if not scale >= 0:
        raise ValueError(f"scale must be nonnegative, got {scale}")
    x = np.asarray(guess, dtype=float).copy()
    r = residual(x)
    norm = norm2(r)
    threshold = tol * scale
    iters, settled = 0, False  # settled: the last correction was at rounding level
    prev_norm = 0.0  # the residual norm before the last correction
    while not np.isfinite(norm) or (norm > threshold and not settled):
        if not np.isfinite(norm):
            raise NoConvergenceError(
                f"non-finite Newton residual ({norm}) after {iters} iterations"
            )
        if iters >= max_iter:
            raise NoConvergenceError(
                f"no convergence after {max_iter} Newton iterations "
                f"(residual {norm:.3e})"
            )
        d = solve(x, r, not reuse if iters == 0 else norm * norm > threshold * prev_norm)
        x += d
        iters += 1
        prev_norm = norm
        r = residual(x)
        norm = norm2(r)
        settled = norm2(d) <= NEWTON_ROUNDING * _EPS * norm2(x)
    return x, iters


def _block(ab: np.ndarray, ku: int, unknowns: int, w: int, row: int, col: int) -> np.ndarray:
    """View of the augmented band ab holding the DOF-level band of block (row, col).

    Unknown `slot` of DOF i is number unknowns * i + slot, so entry (i, j)
    of the block sits at ab[ku + unknowns (i - j) + row - col, unknowns j + col]:
    in DOF-level band storage ab_dof[w + i - j, j], a strided view.
    """
    start = ku - unknowns * w + row - col
    return ab[start: start + 2 * unknowns * w + 1: unknowns, col::unknowns]


def _row_entries(w: int, n: int, rows: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Band positions (ab_dof rows, columns) of every entry of the given matrix rows."""
    pairs = [(w + i - j, j) for i in rows for j in range(max(0, i - w), min(n, i + w + 1))]
    band_rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    return band_rows, cols


def _newton_matrix(
    operators: AssembledOperators, stab: Stabilization | None,
    constrained_entries: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, int, int]:
    """Constant part of the banded augmented Newton matrix, with its (kl, ku).

    rho is unknown 0 of each DOF and its (rho, rho) block is set per
    iteration.  With stabilization the filter's unknowns and recurrences
    follow (``Stabilization.newton_blocks``), and rho's row is zero at
    constrained_entries, the band positions of the constrained rows;
    without it rho is the one unknown per DOF.
    """
    mesh = operators.mesh
    w, n = mesh.half_band, mesh.n_dofs
    blocks = [(0, 0, None)] + ([] if stab is None else stab.newton_blocks(operators.mass))
    unknowns = 1 + max(max(row, col) for row, col, _ in blocks)
    kl = unknowns * w + max(row - col for row, col, _ in blocks)
    ku = unknowns * w + max(col - row for row, col, _ in blocks)
    ab = np.zeros((kl + ku + 1, unknowns * n), order="F")
    for row, col, band in blocks:
        if band is not None:
            block = _block(ab, ku, unknowns, w, row, col)
            block[...] = band
            if row == 0:
                block[constrained_entries] = 0.0
    return ab, kl, ku


@dataclass(frozen=True, eq=False)
class Stepper:
    """Everything constant over one run: built once, read by every step.

    ``newton`` is the run's one band buffer: each factorization
    overwrites its (rho, rho) entries, through the view ``rho_block``, and
    factors it into ``factors``, the run's one LU workspace, which the
    iterations that keep the factor solve with, in its step or a later
    one.  ``bc_entries`` are the DOF-level band positions of the
    constrained rows and ``bc_values`` their identity-row values.
    """

    scenario: Scenario
    operators: AssembledOperators
    stab: Stabilization | None  # chi delta^2 S Pi^2; None where chi delta^2 = 0
    linear_part: np.ndarray  # M/dt + v_f C, band storage
    newton: np.ndarray  # augmented Newton matrix, band storage
    half_bands: tuple[int, int]  # (kl, ku) of newton
    factors: BandLU  # LU factors of newton at the last factorization, maybe an earlier step's
    unknowns: int  # Newton unknowns per DOF
    rho_block: np.ndarray  # the (rho, rho) block of newton, DOF-level band storage
    bc_entries: tuple[np.ndarray, np.ndarray]  # (band rows, columns)
    bc_values: np.ndarray  # 1 on the diagonal, 0 elsewhere
    constrained: tuple[tuple[int, float], ...]  # Dirichlet (row, value) pairs
    bc_stab: tuple[np.ndarray, ...]  # K e_i of each constrained row i; () without stab
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
        stab = None  # a zero operator: no filter solve, no filter unknowns
        if params.chi * params.delta**2 != 0.0:
            ctx = build_filter_context(ops, params.delta, params.deconv_order)
            stab = stabilization_matrix(ctx, params.chi)
        dirichlet = scenario.dirichlet if mesh.boundary_kind == "dirichlet" else {}
        constrained = tuple(
            (0 if end == LEFT else mesh.n_dofs - 1, g) for end, g in dirichlet.items()
        )
        w = mesh.half_band
        bc_entries = _row_entries(w, mesh.n_dofs, [i for i, _ in constrained])
        bc_stab = () if stab is None else tuple(
            stab(np.eye(1, mesh.n_dofs, i).ravel()) for i, _ in constrained)
        newton, kl, ku = _newton_matrix(ops, stab, bc_entries)
        unknowns = newton.shape[1] // mesh.n_dofs
        return cls(
            scenario=scenario, operators=ops, stab=stab,
            linear_part=ops.mass / dt + params.v_f * ops.convection,
            newton=newton, half_bands=(kl, ku), factors=BandLU(), unknowns=unknowns,
            rho_block=_block(newton, ku, unknowns, w, 0, 0), bc_entries=bc_entries,
            bc_values=(bc_entries[0] == w).astype(float), constrained=constrained,
            bc_stab=bc_stab,
            nonlinear_coeff=2.0 * params.v_f / params.rho_m, dt=dt,
            newton_tol=newton_tol, newton_max_iter=newton_max_iter,
        )


def be_step(
    stepper: Stepper, c_prev: np.ndarray, mass_prev: np.ndarray, t_next: float,
    guess: np.ndarray, stab_guess: np.ndarray | None, reuse: bool = False,
) -> tuple[np.ndarray, int, float, np.ndarray | None, bool]:
    """One implicit step from the coefficients c_prev to t_next, Newton started at guess.

    mass_prev is M c_prev, which the caller has formed once for its
    level; it gives the right-hand side M c_prev / dt and the stopping
    scale.  guess holds coefficients; Newton starts there, with the
    constrained entries set to their Dirichlet values.  stab_guess is K
    guess, which the caller has by linearity from its levels' (see
    run_time_filtered), and None exactly when the run has no
    stabilization; be_step moves it to the start iterate with the
    Stepper's columns K e_i of the constrained rows.  Newton stops at
    ||residual|| <= newton_tol * scale (or at a correction at rounding
    level, see newton_solve), where scale is the size of the step's data:
    the larger of ||c_prev||_L2 = sqrt(c_prev . M c_prev) and the
    Dirichlet values |g|.  It is the same on every mesh that resolves the
    state, and the guess cannot move it.  Neither dt nor the forcing enters
    it: a scale that grew with dt f would, at dt = 1e20, accept a guess
    that solves nothing.

    With reuse, Newton's first iteration solves with the factor that
    ``Stepper.factors`` kept from an earlier step, if it holds one
    (``newton_solve``).  Returns the new coefficients c, the Newton
    iterations, the scale, K c (None without stabilization) and whether
    the next step may start from this step's factor: when the step made at
    most one correction, or its last correction cut the residual norm by
    at least 1 / KEEP_FACTOR_THETA (Hairer and Wanner, IV.8, keep the
    Jacobian after a step that contracted strongly).

    Newton runs no filter chain: each residual after the first takes
    K x_{k+1} = K x_k + K d_k, where K d_k = chi delta^2 S y_{2N+2} comes
    from the correction's last filter unknown y_{2N+2} = Pi^2 d_k
    (``Stabilization.from_pi2``), which the augmented solve holds anyway.
    Once Newton stops, one chain at the returned c forms K c afresh, so no
    rounding of the sums reaches the dissipation c . K c or the caller's
    next levels.  Each factorization goes through ``lu_solve`` into the
    Stepper's workspace (looked up here, so that a tracer wrapping it
    counts factorizations); the chord steps solve with ``Stepper.factors``.
    """
    mesh, scenario = stepper.operators.mesh, stepper.scenario
    c_prev = check_state(mesh, c_prev)
    linear_part, nonlinear_coeff, stab = stepper.linear_part, stepper.nonlinear_coeff, stepper.stab
    scale = max([float(np.sqrt(max(c_prev @ mass_prev, 0.0)))]
                + [abs(value) for _, value in stepper.constrained])
    rhs = mass_prev / stepper.dt
    if scenario.forcing is not None:
        rhs = rhs + forcing_vector(scenario.forcing, t_next, mesh)
    unknowns, rho_block = stepper.unknowns, stepper.rho_block
    start = np.array(guess, dtype=float)
    shifts = [value - start[i] for i, value in stepper.constrained]
    for i, value in stepper.constrained:  # the guess meets the Dirichlet rows
        start[i] = value
    # K x at the iterate of the next residual evaluation
    stab_x = None if stab is None else stab_guess + sum(
        shift * column for shift, column in zip(shifts, stepper.bc_stab))

    r_before = r_after = None  # the residuals on either side of the last correction

    def residual(x: np.ndarray) -> np.ndarray:
        nonlocal r_after
        r = band_matvec(linear_part, x)
        if stab is not None:
            r += stab_x
        r -= nonlinear_coeff * b_residual(mesh, x)
        r -= rhs
        for i, value in stepper.constrained:
            r[i] = x[i] - value
        r_after = r
        return r

    def solve(x: np.ndarray, r: np.ndarray, refactor: bool) -> np.ndarray:
        # newton_solve adds the correction to x, so K x follows it here
        nonlocal stab_x, r_before
        r_before = r
        lifted = np.zeros(stepper.newton.shape[1])
        lifted[::unknowns] = -r
        if refactor:
            jac = b_jacobian(mesh, x)
            np.subtract(linear_part, nonlinear_coeff * jac, out=rho_block)
            rho_block[stepper.bc_entries] = stepper.bc_values
            d = lu_solve(stepper.newton, lifted, *stepper.half_bands, out=stepper.factors)
        else:
            d = stepper.factors.solve(lifted)
        if stab is not None:  # the last filter unknown y_{2N+2} = Pi^2 d_rho
            stab_x = stab_x + stab.from_pi2(d[unknowns - 1::unknowns])
        return d[::unknowns]

    c, iters = newton_solve(residual, solve, start, scale, stepper.newton_tol,
                            stepper.newton_max_iter, reuse and stepper.factors.pivots is not None)
    keep = iters <= 1 or norm2(r_after) <= KEEP_FACTOR_THETA * norm2(r_before)
    return c, iters, scale, None if stab is None else stab(c), keep


def time_filter_step(hat: np.ndarray, n1: np.ndarray, n2: np.ndarray, gamma: float) -> np.ndarray:
    """Post-step correction hat - (gamma/2)(hat - 2 n1 + n2) of three levels' vectors.

    Linear in the levels, so it serves both the states and their K.
    """
    return hat - 0.5 * gamma * (hat - 2.0 * n1 + n2)


def _extrapolated(n1: np.ndarray, n2: np.ndarray | None, n3: np.ndarray | None = None
                  ) -> np.ndarray:
    """Newton's start from the last levels' vectors: n1 alone, else linear, else quadratic.

    2 n1 - n2 and 3 (n1 - n2) + n3 are linear in the levels, so they serve
    both the states and their K.
    """
    if n2 is None:
        return n1
    if n3 is None:
        return 2.0 * n1 - n2
    return 3.0 * (n1 - n2) + n3


def mass_norm(c: np.ndarray, mass_c: np.ndarray) -> float:
    """Discrete L2 norm sqrt(c . M c) of the coefficients c, from mass_c = M c."""
    return float(np.sqrt(max(c @ mass_c, 0.0)))


def energy_e(a: np.ndarray, b: np.ndarray, mass_a: np.ndarray, mass_b: np.ndarray) -> float:
    """E[u^n] = (1/4)(||u^n||^2 + ||2u^n - u^{n-1}||^2 + ||u^n - u^{n-1}||^2).

    With a = u^n and b = u^{n-1}, the three norms are formed from the two
    products mass_a = M a and mass_b = M b (M(2a - b) = 2 M a - M b).
    """
    return 0.25 * float(a @ mass_a + (2.0 * a - b) @ (2.0 * mass_a - mass_b)
                        + (a - b) @ (mass_a - mass_b))


def energy_z(a: np.ndarray, b: np.ndarray, c: np.ndarray, mass: np.ndarray) -> float:
    """Z[u^n] = (3/4)||u^n - 2u^{n-1} + u^{n-2}||^2 (discrete second difference).

    a, b and c are the coefficients of u^n, u^{n-1} and u^{n-2} and mass
    the band of M.  This is the curvature term appearing in the algebraic
    identity (D[u], I[u]) = E[u^n] - E[u^{n-1}] + Z[u^n].  It forms its
    own product M d of the second difference d: built from the three
    levels' products instead, Z would lose about 1e-8 of its value to
    cancellation.
    """
    d = a - 2.0 * b + c
    return 0.75 * float(d @ band_matvec(mass, d))


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
    Newton starts step 1 at rho^0, step 2 at 2 rho^{n-1} - rho^{n-2} and
    every later step at 3 rho^{n-1} - 3 rho^{n-2} + rho^{n-3}, the
    accepted states' extrapolations.  Whether a step may start from the
    last step's factor is the run's own state, here in the loop: yes after
    a step that contracted strongly (``be_step``), and never on steps 1 and
    2 or on a step run again.  A step that fails from the quadratic start
    (NoConvergenceError or SingularMatrixError) runs again as step 2 runs,
    from the linear extrapolation with a fresh factor, and the records
    count the iterations of the run that converged.  A step that fails
    there too, or on step 1 or 2, raises NoConvergenceError naming the
    step, and so does a filter matrix or a Newton band that the set-up
    cannot factor (``Stepper.build``).

    The loop carries coefficient vectors, and its records are those
    vectors themselves, so rhohat^n is rho^n exactly where no filter
    applies.  With stabilization it carries K rho^n next to
    M rho^n: K rhohat^n comes from the one filter chain of its step (level
    0 runs its own), the time filter acts on it by linearity, and the
    start's K is the same extrapolation of the levels' K, such as
    3 (K rho^{n-1} - K rho^{n-2}) + K rho^{n-3}.  A level's dissipation is
    c . K c at c = rhohat^n.
    """
    try:
        stepper = Stepper.build(scenario, params, grid.dt, mesh, newton_tol, newton_max_iter)
    except SingularMatrixError as err:
        raise NoConvergenceError(f"set-up failed: {err}") from err
    mass, stab = stepper.operators.mass, stepper.stab
    # rho^{n-1}, rho^{n-2}, rho^{n-3}, M rho^{n-1} and the three levels' K;
    # level 0 is its own predecessor
    c_n1, c_n2, c_n3 = l2_project(scenario.initial_condition, mesh), None, None
    mass_n1 = band_matvec(mass, c_n1)
    stab_n1 = stab_n2 = stab_n3 = None
    reuse = False  # whether this step may start from the last step's factor
    for n in range(grid.n_steps + 1):
        t = n * grid.dt
        if n:
            hat = None
            if c_n3 is not None:  # the quadratic start, with the kept factor if it may
                try:
                    hat, iters, scale, stab_hat, reuse = be_step(
                        stepper, c_n1, mass_n1, t, _extrapolated(c_n1, c_n2, c_n3),
                        None if stab is None else _extrapolated(stab_n1, stab_n2, stab_n3),
                        reuse)
                except (NoConvergenceError, SingularMatrixError):
                    pass  # run the step again as steps 1 and 2 run
            if hat is None:  # from rho^0 or the linear start, with a fresh factor
                try:
                    hat, iters, scale, stab_hat, reuse = be_step(
                        stepper, c_n1, mass_n1, t, _extrapolated(c_n1, c_n2),
                        None if stab is None else _extrapolated(stab_n1, stab_n2))
                except (NoConvergenceError, SingularMatrixError) as err:
                    raise NoConvergenceError(f"step {n} to t = {t:.6g} failed: {err}") from err
        else:
            hat, iters, scale = c_n1, 0, 1.0
            stab_hat = None if stab is None else stab(hat)
        dissipation = 0.0 if stab_hat is None else float(hat @ stab_hat)
        c, stab_n = hat, stab_hat
        if c_n2 is not None and params.gamma != 0.0:
            c = time_filter_step(hat, c_n1, c_n2, params.gamma)
            if stab is not None:
                stab_n = time_filter_step(stab_hat, stab_n1, stab_n2, params.gamma)
        # M rho^n, formed once: the level's norm and energy, and the next
        # step's right-hand side and stopping scale.  Diagnostics describe
        # the accepted state; the dissipation of the step is the one
        # exerted on rhohat = I[rho^n] in step 1.
        mass_n = band_matvec(mass, c) if n else mass_n1
        diag = StepDiagnostics(
            n=n, t=t, l2_norm=mass_norm(c, mass_n),
            energy_e=energy_e(c, c_n1, mass_n, mass_n1),
            zeta_z=0.0 if c_n2 is None else energy_z(c, c_n1, c_n2, mass),
            newton_iters=iters, stab_dissipation=dissipation, residual_scale=scale,
        )
        c_n1, c_n2, c_n3, mass_n1 = c, (c_n1 if n else None), c_n2, mass_n
        stab_n1, stab_n2, stab_n3 = stab_n, stab_n1, stab_n2
        yield c, diag, hat
