"""Property tests of the discrete invariants over random meshes and parameters.

Most properties are drawn over the degree, the number of elements, chi,
delta and the deconvolution order N; the shock-speed property over the
two states of a Riemann problem.  The examples are derandomized and
few, so the suite stays reproducible and quick.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lwrfem.filtering import build_filter_context, stabilization_matrix
from lwrfem.linalg import band_matvec
from lwrfem.mesh import DIRICHLET, PERIODIC, build_mesh
from lwrfem.operators import assemble, b_jacobian, b_residual, forcing_vector, l2_project
from lwrfem.scenarios import LEFT, RIGHT, Scenario, manufactured, shock
from lwrfem.stepping import (
    NEWTON_MAX_ITER, ModelParams, Stepper, TimeGrid, be_step, run_time_filtered,
)
from conftest import (
    FilterOracle, applied_base, b_form, dense, dense_stabilization_base, dof_x, march, norm,
    operator_matrix, three_level_ops,
)

GAMMA_FILTER = 2.0 / 3.0
_EPS = float(np.finfo(float).eps)

PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=20, database=None
)

degrees = st.sampled_from([1, 2])
n_elements = st.integers(min_value=4, max_value=24)
boundary_kinds = st.sampled_from([PERIODIC, DIRICHLET])
deltas = st.floats(min_value=0.0, max_value=0.5)
deconv_orders = st.integers(min_value=0, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_fe(mesh, seed):
    return np.random.default_rng(seed).standard_normal(mesh.n_dofs)


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, seed=seeds)
def test_b_form_skew_symmetric_on_periodic_meshes(degree, n, seed):
    mesh = build_mesh(0.0, 1.0, n, degree, PERIODIC)
    u, v, w = (_random_fe(mesh, seed + k) for k in range(3))
    value = b_form(mesh, u, v, w)
    # each term of b(u, v, w) is bounded by max|u| max|v| max|w| times the
    # largest derivative factor, about (degree n)
    scale = degree * n * np.prod([np.abs(f).max() for f in (u, v, w)])
    assert abs(value + b_form(mesh, u, w, v)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, kind=boundary_kinds, delta=deltas,
       order=deconv_orders)
def test_stabilization_base_symmetric_positive_semidefinite(degree, n, kind, delta, order):
    # Pi^T S Pi as the solver applies it, by filter solves, column by column
    ops = assemble(build_mesh(0.0, 1.0, n, degree, kind))
    base = applied_base(build_filter_context(ops, delta, order))
    scale = max(np.abs(ops.stiffness).max(), 1.0)
    assert np.abs(base - base.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (base + base.T)).min() >= -1e-11 * scale
    # and against the dense-Pi oracle, Pi = (I - F)^{N+1} as a matrix power
    assert np.abs(base - dense_stabilization_base(ops, delta, order)).max() <= 1e-11 * scale


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, kind=boundary_kinds,
       delta=st.floats(min_value=0.05, max_value=0.5), order=deconv_orders, seed=seeds)
def test_stabilization_base_matches_oracle_fluctuations(degree, n, kind, delta, order, seed):
    # u . (Pi^T S Pi v) = fluctuation(u)^T S fluctuation(v), with the
    # fluctuation u - D_N(G(u)) from repeated filter solves.  Relative to
    # the Cauchy-Schwarz bound of the right side; for delta well below h
    # both sides sink to the rounding level of their float64 operators.
    mesh = build_mesh(0.0, 1.0, n, degree, kind)
    ops = assemble(mesh)
    base = applied_base(build_filter_context(ops, delta, order))
    oracle = FilterOracle(ops, delta, order)
    u, v = (_random_fe(mesh, seed + k) for k in range(2))
    fu, fv = (oracle.fluctuation(f) for f in (u, v))
    stiffness = dense(ops.stiffness)
    expected = fu @ (stiffness @ fv)
    scale = np.sqrt((fu @ stiffness @ fu) * (fv @ stiffness @ fv))
    assert abs(u @ (base @ v) - expected) <= 1e-10 * scale


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, kind=boundary_kinds, delta=deltas)
def test_filter_operator_symmetric_positive_definite(degree, n, kind, delta):
    ops = assemble(build_mesh(0.0, 1.0, n, degree, kind))
    mass = dense(ops.mass)
    matrix = dense(ops.mass + delta**2 * ops.stiffness)
    assert np.abs(matrix - matrix.T).max() <= 1e-14 * np.abs(matrix).max()
    # the mass matrix alone bounds the spectrum from below
    floor = np.linalg.eigvalsh(mass).min()
    assert floor > 0.0
    assert np.linalg.eigvalsh(matrix).min() >= floor * (1.0 - 1e-10)


# The mesh on which the stabilization meets its continuum symbol, by degree,
# and the rule's constant c_p below
SYMBOL_MESH = {1: 2000, 2: 400}
OPTICAL_CONSTANT = {1: 0.0, 2: 4.7e-4}


@PROPERTY_SETTINGS
@given(degree=degrees, k=st.integers(min_value=1, max_value=3), order=deconv_orders,
       delta=st.floats(min_value=0.03, max_value=0.1), chi=st.floats(min_value=0.1, max_value=2.0))
def test_stabilization_matches_its_continuum_symbol(degree, k, order, delta, chi):
    # On u = sin(kappa x), kappa = 2 pi k, the continuum I - F has symbol
    # s = delta^2 kappa^2 / (1 + delta^2 kappa^2), so Pi = s^{N+1} and
    # u . K u = chi delta^2 kappa^2 s^{2N+2} ||u||_M^2.  Rule for the relative
    # defect of the L2 projection of u on a periodic mesh of width h:
    #   (2N + 3) e_p + c_p (kappa h)^6 / s^{2N+2}.
    # e_p is the relative error of the discrete eigenvalue of M^-1 S,
    # (kappa h)^2 / 12 for P1 and (kappa h)^4 / 720 for P2; it moves the
    # symbol s by e_p / (1 + delta^2 kappa^2) and S by e_p, so the value by
    # (2N + 3) e_p at most.  The second term is the projection's component on
    # the P2 optical branch, where the symbol is near 1 and is not damped;
    # c_2 = 4.7e-4 is fitted to two P2 measurements at k = 1, N = 2,
    # delta = 0.03, where it dominates: 1.8e-2 at n = 100 and 4.5e-6 at
    # n = 400.  On P1 the projection of a mode is an eigenvector, c_1 = 0.
    # Asserted to a factor 2.  Below delta = 0.03 (at N = 3) the value nears
    # the rounding level of the filter chain.
    n = SYMBOL_MESH[degree]
    mesh = build_mesh(0.0, 1.0, n, degree, PERIODIC)
    ops = assemble(mesh)
    stab = stabilization_matrix(build_filter_context(ops, delta, order), chi)
    kappa = 2 * np.pi * k
    u = l2_project(lambda x: np.sin(kappa * x), mesh)
    s = (delta * kappa) ** 2 / (1 + (delta * kappa) ** 2)
    expected = chi * (delta * kappa) ** 2 * s ** (2 * order + 2) * (u @ band_matvec(ops.mass, u))
    kh = kappa / n
    eigenvalue_error = kh**2 / 12 if degree == 1 else kh**4 / 720
    rule = ((2 * order + 3) * eigenvalue_error
            + OPTICAL_CONSTANT[degree] * kh**6 / s ** (2 * order + 2))
    assert abs(u @ stab(u) / expected - 1) <= 2 * rule


def _fourier_series(seed, n_modes=3, amplitude=0.2):
    amps = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, (n_modes, 2))

    def series(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for k, (a, b) in enumerate(amps, start=1):
            total += (a * np.sin(2 * np.pi * k * x) + b * np.cos(2 * np.pi * k * x)) / k
        return total

    return series


@PROPERTY_SETTINGS
@given(degree=degrees, n=st.integers(min_value=8, max_value=32),
       chi=st.floats(min_value=0.0, max_value=1.0),
       delta_coeff=st.floats(min_value=0.1, max_value=1.0),
       order=st.integers(min_value=0, max_value=2),
       n_steps=st.integers(min_value=1, max_value=20), seed=seeds)
def test_unfiltered_energy_inequality(degree, n, chi, delta_coeff, order, n_steps, seed):
    # criterion 4, step by step:
    # ||u^n||^2 + 2 dt (stab u^n, u^n) <= ||u^{n-1}||^2 on periodic unforced runs
    mesh = build_mesh(0.0, 1.0, n, degree, PERIODIC)
    scenario = dataclasses.replace(
        manufactured(), forcing=None, initial_condition=_fourier_series(seed)
    )
    params = ModelParams(chi=chi, delta=delta_coeff * np.sqrt(mesh.h), deconv_order=order)
    grid = TimeGrid(1e-3, n_steps)
    trajectory = march(scenario, params, grid, mesh, newton_tol=1e-12)
    norms = np.array([d.l2_norm for _, d in trajectory])
    dissipation = np.array([d.stab_dissipation for _, d in trajectory])
    assert norms[0] > 0.0
    assert np.all(dissipation >= -1e-12 * norms[0] ** 2)
    lhs = norms[1:] ** 2 + 2.0 * grid.dt * dissipation[1:]
    assert np.all(lhs <= norms[:-1] ** 2 + 1e-10 * norms[0] ** 2)

    # the diagnostics are the Stepper's own quadratic forms of the states
    stepper = Stepper.build(scenario, params, grid.dt, mesh)
    c = trajectory[-1][0]
    assert dissipation[-1] == (0.0 if stepper.stab is None else c @ stepper.stab(c))
    assert norms[-1] == norm(c, stepper.operators)


@PROPERTY_SETTINGS
@given(degree=degrees, n=st.integers(min_value=8, max_value=32),
       chi=st.floats(min_value=0.0, max_value=1.0),
       delta_coeff=st.floats(min_value=0.1, max_value=1.0),
       order=st.integers(min_value=0, max_value=2),
       n_steps=st.integers(min_value=2, max_value=20), seed=seeds)
def test_filtered_energy_monotone(degree, n, chi, delta_coeff, order, n_steps, seed):
    # criterion 5, step by step: at gamma = 2/3 on periodic unforced runs,
    # E[u^n] - E[u^{n-1}] + Z[u^n] + dt (stab I[u^n], I[u^n]) = 0 up to the
    # Newton tolerance, so E never grows from the first step on
    mesh = build_mesh(0.0, 1.0, n, degree, PERIODIC)
    scenario = dataclasses.replace(
        manufactured(), forcing=None, initial_condition=_fourier_series(seed)
    )
    params = ModelParams(chi=chi, delta=delta_coeff * np.sqrt(mesh.h),
                         deconv_order=order, gamma=GAMMA_FILTER)
    grid = TimeGrid(1e-3, n_steps)
    trajectory = march(scenario, params, grid, mesh, newton_tol=1e-12)
    diags = [d for _, d in trajectory[1:]]
    energy = np.array([d.energy_e for d in diags])
    assert energy[0] > 0.0
    assert np.all(energy[1:] <= energy[:-1] + 1e-10 * energy[0])
    balance = np.array([
        d.energy_e - prev.energy_e + d.zeta_z + grid.dt * d.stab_dissipation
        for prev, d in zip(diags, diags[1:])
    ])
    assert np.abs(balance).max() <= 1e-10 * energy[0]


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, chi=st.floats(min_value=0.0, max_value=1.0),
       delta=deltas, order=deconv_orders, dt=st.sampled_from([0.01, 0.02, 0.05]))
def test_one_step_two_step_equivalence(degree, n, chi, delta, order, dt):
    # criterion 7: the filtered states solve the one-step scheme in
    # D[u^n] and I[u^n] on the forced Dirichlet problem, interior rows
    scenario = manufactured()
    mesh = build_mesh(0.0, 1.0, n, degree, DIRICHLET)
    ops = assemble(mesh)
    params = ModelParams(chi=chi, delta=delta, deconv_order=order, gamma=GAMMA_FILTER)
    stab = stabilization_matrix(build_filter_context(ops, delta, order), chi)
    newton_tol = 1e-10
    grid = TimeGrid(dt, 6)
    trajectory = march(scenario, params, grid, mesh, newton_tol=newton_tol)
    for k in range(2, grid.n_steps + 1):
        d, i = three_level_ops(trajectory[k][0], trajectory[k - 1][0],
                               trajectory[k - 2][0])
        residual = (
            band_matvec(ops.mass, d) / dt
            + params.v_f * band_matvec(ops.convection, i)
            - (2.0 * params.v_f / params.rho_m) * b_residual(mesh, i)
            + stab(i)
            - forcing_vector(scenario.forcing, k * dt, mesh)
        )
        allowed = 10.0 * newton_tol * trajectory[k][1].residual_scale
        assert np.abs(residual[1:-1]).max() <= allowed


@PROPERTY_SETTINGS
@given(n=st.integers(min_value=8, max_value=64), chi=st.floats(min_value=0.0, max_value=1.0),
       order=st.sampled_from([0, 1]), dt=st.sampled_from([1e-4, 1e-3, 1e-2]))
def test_filtered_dirichlet_row_is_that_of_the_one_step_scheme(n, chi, order, dt):
    # The shock's projected level 0 misses its inflow value g (1/3 against
    # 1/4).  Each backward Euler step puts rhohat^n on g, and the filter
    # then combines the levels' boundary entries too, so the accepted
    # error e^n = rho^n_0 - g follows e^n = gamma e^{n-1} - (gamma/2) e^{n-2}
    # (e^1 = 0) and decays like (gamma/2)^{n/2}.  That is the boundary
    # condition of the equivalent one-step scheme, I[rho^n]_0 = rhohat^n_0
    # = g (Guzel and Layton, BIT 2018), whose other rows the states solve:
    # every row but 0, as the outflow end is free.
    scenario = shock()
    g = scenario.dirichlet[LEFT]
    mesh = build_mesh(0.0, 1.0, n, 1, DIRICHLET)
    ops = assemble(mesh)
    delta = np.sqrt(mesh.h)
    params = ModelParams(chi=chi, delta=delta, deconv_order=order, gamma=GAMMA_FILTER)
    stab = stabilization_matrix(build_filter_context(ops, delta, order), chi)
    newton_tol = 1e-10
    records = list(run_time_filtered(scenario, params, TimeGrid(dt, 12), mesh,
                                     newton_tol=newton_tol))
    assert all(hat[0] == g for _, _, hat in records[1:])
    e = [rho[0] - g for rho, _, _ in records]
    assert e[0] == pytest.approx(1.0 / 12.0) and e[1] == 0.0
    assert e[2] == pytest.approx(-e[0] / 3.0)  # the accepted state leaves g
    for k in range(2, len(e)):
        assert abs(e[k] - (GAMMA_FILTER * e[k - 1] - 0.5 * GAMMA_FILTER * e[k - 2])) <= 1e-16
        d, i = three_level_ops(records[k][0], records[k - 1][0], records[k - 2][0])
        assert i[0] == pytest.approx(g, rel=2 * _EPS, abs=0.0)
        residual = (
            band_matvec(ops.mass, d) / dt
            + params.v_f * band_matvec(ops.convection, i)
            - (2.0 * params.v_f / params.rho_m) * b_residual(mesh, i)
            + stab(i)
        )
        assert np.abs(residual[1:]).max() <= 10.0 * newton_tol * records[k][1].residual_scale


@PROPERTY_SETTINGS
@given(degree=degrees, n=st.integers(min_value=4, max_value=24),
       chi=st.floats(min_value=0.0, max_value=1.0), order=st.sampled_from([0, 1, 3]),
       gamma=st.sampled_from([0.0, 0.5, GAMMA_FILTER]), seed=seeds)
def test_periodic_mass_conserved(degree, n, chi, order, gamma, seed):
    # on a periodic mesh the transport and b terms integrate to zero and
    # Pi 1 = 0 (S 1 = 0), so 1 . (M rho^n) stays at its level-0 value; the
    # time filter is linear in the levels, with weights summing to one
    mesh = build_mesh(0.0, 1.0, n, degree, PERIODIC)
    series = _fourier_series(seed)
    scenario = dataclasses.replace(
        manufactured(), forcing=None, initial_condition=lambda x: 0.3 + series(x)
    )
    params = ModelParams(chi=chi, delta=np.sqrt(mesh.h), deconv_order=order, gamma=gamma)
    mass = assemble(mesh).mass
    totals = np.array([
        band_matvec(mass, rho).sum()
        for rho, _ in march(scenario, params, TimeGrid(1e-2, 12), mesh)
    ])
    assert np.abs(totals - totals[0]).max() <= 1e-14


@PROPERTY_SETTINGS
@given(degree=degrees, n=n_elements, kind=boundary_kinds, order=deconv_orders,
       chi=st.floats(min_value=0.0, max_value=2.0),
       delta_coeff=st.floats(min_value=0.1, max_value=1.0),
       dt=st.floats(min_value=1e-4, max_value=0.05), seed=seeds)
def test_carried_stabilization_lands_on_exact_newton(degree, n, kind, order, chi, delta_coeff,
                                                     dt, seed):
    # be_step carries K x through Newton, from the K of its guess that the
    # caller gives (moved to the Dirichlet values by the columns K e_i), and
    # keeps its factor while predicted to finish.  The reference runs the
    # filter chain in every residual and factors a dense Jacobian at every
    # iterate, down to a correction at rounding level.
    mesh = build_mesh(0.0, 1.0, n, degree, kind)
    rng = np.random.default_rng(seed)
    left, right = rng.uniform(0.0, 0.5, 2)
    scenario = dataclasses.replace(
        manufactured(), dirichlet={LEFT: left, RIGHT: right})
    params = ModelParams(chi=chi, delta=delta_coeff * np.sqrt(mesh.h), deconv_order=order)
    stepper = Stepper.build(scenario, params, dt, mesh)
    stab, coeff, t_next = stepper.stab, stepper.nonlinear_coeff, 0.3 + dt
    prev = 0.3 + _fourier_series(seed)(dof_x(mesh))
    guess = prev + 0.5 * _fourier_series(seed + 1)(dof_x(mesh))
    mass_prev = band_matvec(stepper.operators.mass, prev)
    state, _, scale, *_ = be_step(stepper, prev, mass_prev, t_next, guess,
                                  None if stab is None else stab(guess))

    rhs = mass_prev / dt + forcing_vector(scenario.forcing, t_next, mesh)
    linear = dense(stepper.linear_part)
    if stab is not None:
        linear += operator_matrix(stab, mesh.n_dofs)
    rows = [i for i, _ in stepper.constrained]
    x = guess.copy()
    for i, g in stepper.constrained:
        x[i] = g
    for _ in range(NEWTON_MAX_ITER):
        r = band_matvec(stepper.linear_part, x) - coeff * b_residual(mesh, x) - rhs
        if stab is not None:
            r += stab(x)
        for i, g in stepper.constrained:
            r[i] = x[i] - g
        jac = linear - coeff * dense(b_jacobian(mesh, x))
        jac[rows] = np.eye(mesh.n_dofs)[rows]
        d = np.linalg.solve(jac, -r)
        x += d
        if np.linalg.norm(d) <= 10.0 * np.finfo(float).eps * np.linalg.norm(x):
            break
    else:
        raise AssertionError("the reference Newton did not converge")
    e = state - x
    distance = np.sqrt(max(e @ band_matvec(stepper.operators.mass, e), 0.0))
    assert distance <= stepper.newton_tol * scale


def _flux(rho, params):
    return params.v_f * rho * (1.0 - rho / params.rho_m)


@PROPERTY_SETTINGS
@given(degree=degrees, n=st.integers(min_value=8, max_value=32),
       chi=st.floats(min_value=0.0, max_value=1.0), order=st.integers(min_value=0, max_value=2),
       rho_l=st.floats(min_value=0.05, max_value=0.45),
       rho_r=st.floats(min_value=0.05, max_value=0.45), forced=st.booleans())
def test_dirichlet_flux_balance(degree, n, chi, order, rho_l, rho_r, forced):
    # Row replacement drops the equations of the constrained rows.  Summed
    # over all rows (the basis sums to one, S 1 = 0 and Pi 1 = 0), the
    # unconstrained backward Euler residual R is the discrete conservation law
    #   sum_i R_i = 1.M (rho^n - rho^{n-1}) / dt + q(rho^n(1)) - q(rho^n(0)) - 1.f,
    # and R vanishes on the other rows.  So the mass changes by the boundary
    # flux q(g) plus the constrained row's reaction R_i: inflow q(g_0) + R_0,
    # outflow q(g_1) - R_last at a constrained right end, else q(rho^n(1)).
    mesh = build_mesh(0.0, 1.0, n, degree, DIRICHLET)
    if forced:  # zero data at both ends, forcing
        scenario = manufactured()
    else:  # a Riemann problem rho_l | rho_r with inflow data at x = 0
        scenario = Scenario(
            initial_condition=lambda x: np.where(np.asarray(x) < 0.2, rho_l, rho_r),
            dirichlet={LEFT: rho_l}, forcing=None, exact_solution=None,
            defaults={},
        )
    params = ModelParams(chi=chi, delta=np.sqrt(mesh.h), deconv_order=order)
    ops = assemble(mesh)
    stab = stabilization_matrix(build_filter_context(ops, params.delta, order), chi)
    newton_tol, dt = 1e-10, 0.01
    trajectory = march(scenario, params, TimeGrid(dt, 5), mesh, newton_tol=newton_tol)
    constrained = [0] + ([mesh.n_dofs - 1] if forced else [])
    for (prev, _), (c, diag) in zip(trajectory, trajectory[1:]):
        force = (np.zeros(mesh.n_dofs) if scenario.forcing is None
                 else forcing_vector(scenario.forcing, diag.t, mesh))
        mass_change = band_matvec(ops.mass, c - prev) / dt
        residual = (mass_change + params.v_f * band_matvec(ops.convection, c)
                    - (2.0 * params.v_f / params.rho_m) * b_residual(mesh, c) + stab(c) - force)
        size = (np.abs(band_matvec(ops.mass, c)).sum() / dt + np.abs(force).sum()
                + np.abs(residual).sum())
        # the row sums: an identity of the discrete operators, to rounding
        row_sum = mass_change.sum() + _flux(c[-1], params) - _flux(c[0], params) - force.sum()
        assert abs(residual.sum() - row_sum) <= 1e-13 * size
        # the balance, to the Newton tolerance of the unconstrained rows, or
        # to rounding where the scale is 0 (the forced step from zero data)
        free = np.delete(residual, constrained)
        assert np.abs(free).max() <= 10.0 * newton_tol * diag.residual_scale + 1e-13 * size
        g = [scenario.dirichlet[end] for end in (LEFT, RIGHT)[:len(constrained)]]
        inflow = _flux(g[0], params) + residual[0]
        outflow = _flux(g[1], params) - residual[-1] if forced else _flux(c[-1], params)
        allowed = 10.0 * np.sqrt(mesh.n_dofs) * newton_tol * diag.residual_scale
        assert abs(mass_change.sum() - (inflow - outflow + force.sum())) <= allowed + 1e-13 * size


def _shock_front(mesh, c, level):
    """Where the state c last crosses level, by linear interpolation between DOFs."""
    x = dof_x(mesh)
    k = np.nonzero((c[:-1] - level) * (c[1:] - level) <= 0.0)[0][-1]
    return x[k] + (level - c[k]) / (c[k + 1] - c[k]) * (x[k + 1] - x[k])


@PROPERTY_SETTINGS
@given(rho_l=st.floats(min_value=0.05, max_value=0.44),
       rho_r=st.floats(min_value=0.06, max_value=0.45))
def test_shock_moves_at_rankine_hugoniot_speed(rho_l, rho_r):
    # a Riemann problem rho_l | rho_r with rho_l < rho_r: both characteristic
    # speeds v_f (1 - 2 rho / rho_m) are positive, so only the inflow end is
    # constrained, and the front moves at s = v_f (1 - (rho_l + rho_r) / rho_m).
    # The jump starts at x = 0.2, clear of the inflow end by more than the
    # filter radius, and its offset from s t is the same at both times.  A
    # jump of at least 0.01 keeps the crossing far above the Newton tolerance.
    assume(rho_r - rho_l >= 0.01)
    mesh = build_mesh(0.0, 1.0, 128, 1, DIRICHLET)
    scenario = Scenario(
        initial_condition=lambda x: np.where(np.asarray(x) < 0.2, rho_l, rho_r),
        dirichlet={LEFT: rho_l}, forcing=None, exact_solution=None, defaults={},
    )
    params = ModelParams(chi=1.0, delta=np.sqrt(mesh.h))
    dt, times = 5e-3, (0.2, 0.6)
    levels = {round(t / dt): t for t in times}
    fronts = [
        _shock_front(mesh, rho, 0.5 * (rho_l + rho_r))
        for rho, diag, _ in run_time_filtered(scenario, params, TimeGrid(dt, 120), mesh)
        if diag.n in levels
    ]
    speed = (fronts[1] - fronts[0]) / (times[1] - times[0])
    assert speed == pytest.approx(params.v_f * (1.0 - (rho_l + rho_r) / params.rho_m),
                                  rel=0.009)
